#include "stats/runner.hpp"

#include <span>
#include <vector>

#include "exec/thread_pool.hpp"
#include "linkstate/telemetry.hpp"

namespace ftsched {

namespace {

/// One lane's private accumulators, folded in lane order after the join.
struct RepetitionShard {
  obs::SchedulerProbe probe;
  // Shards keep every sample so the merge can apply the target collector's
  // own series_every to combined sample ordinals (see merge_shard).
  obs::LinkTelemetry telemetry{obs::LinkTelemetryOptions{1, 8}};
  std::uint64_t total_requests = 0;
  std::uint64_t total_granted = 0;
};

/// One lane: a contiguous chunk of repetitions run on a private scheduler,
/// LinkState and verifier. Ratios land in per-repetition slots of the
/// shared (pre-sized) vector; everything else accumulates into the lane's
/// shard.
void run_lane(const FatTree& tree, const ExperimentConfig& config,
              exec::ChunkRange chunk, std::span<double> ratios,
              RepetitionShard& shard) {
  auto made = make_scheduler(config.scheduler, config.seed);
  FT_REQUIRE(made.ok());
  Scheduler& scheduler = *made.value();
  // The caller's sink with the lane's probe in place of the caller's; a
  // trace (which runs one lane) reaches the scheduler as given.
  obs::Sink sink = config.sink ? *config.sink : obs::Sink{};
  if (sink.probe) sink.probe = &shard.probe;
  scheduler.set_sink(config.sink ? &sink : nullptr);
  LinkState state(tree);
  // One verifier per lane, so its scratch is sized once, not per batch.
  const ScheduleVerifier verifier(tree, VerifyOptions{config.allow_residual});
  for (std::size_t rep = chunk.begin; rep < chunk.end; ++rep) {
    // Independent, reproducible streams per repetition: one for the
    // workload, one for the scheduler's internal randomness.
    std::uint64_t mix = repetition_seed(config.seed, rep);
    Xoshiro256ss workload_rng(splitmix64(mix));
    scheduler.reseed(splitmix64(mix));

    const std::vector<Request> batch =
        generate_pattern(tree, config.pattern, workload_rng, config.workload);
    state.reset();
    const ScheduleResult result = scheduler.schedule(tree, batch, state);
    // Batch boundary: the granted circuits of this repetition are exactly
    // what occupies the fabric now.
    if (config.telemetry) sample_link_state(state, rep, shard.telemetry);
    if (config.verify) {
      const Status ok = verifier.verify(batch, result, &state).status();
      FT_REQUIRE_MSG(ok.ok(), ok.message().c_str());
    }
    ratios[rep] = result.schedulability_ratio();
    shard.total_requests += result.outcomes.size();
    shard.total_granted += result.granted_count();
  }
}

}  // namespace

ExperimentPoint run_experiment(const FatTree& tree,
                               const ExperimentConfig& config) {
  FT_REQUIRE(config.repetitions > 0);
  FT_REQUIRE(config.threads >= 1);
  obs::SchedulerProbe* const probe =
      config.sink ? config.sink->probe : nullptr;
  const std::size_t lanes =
      obs::lane_count(config.sink, config.threads, config.repetitions);

  std::vector<double> ratios(config.repetitions, 0.0);
  std::vector<RepetitionShard> shards(lanes);
  exec::ThreadPool pool(lanes);
  exec::parallel_chunks(pool, config.repetitions,
                        [&](std::size_t k, exec::ChunkRange chunk) {
                          run_lane(tree, config, chunk, ratios, shards[k]);
                        });
  // Lane order == repetition order, so the merged probe and telemetry equal
  // a one-lane run's field for field.
  ExperimentPoint point;
  for (const RepetitionShard& shard : shards) {
    point.total_requests += shard.total_requests;
    point.total_granted += shard.total_granted;
    if (probe) probe->merge_from(shard.probe);
    if (config.telemetry) config.telemetry->merge_shard(shard.telemetry);
  }
  point.schedulability = Summary::from(ratios);
  if (probe) {
    point.reject_by_level = probe->reject_by_level();
    point.total_rejected = probe->rejects();
  }
  return point;
}

}  // namespace ftsched
