#include "stats/runner.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "exec/thread_pool.hpp"
#include "linkstate/telemetry.hpp"

namespace ftsched {

namespace {

/// One contiguous chunk of repetitions, run on one scheduler + state pair
/// (and one verifier).
/// Ratios land in per-repetition slots of the shared (pre-sized) vector;
/// everything else accumulates into caller-owned shard storage. This is the
/// single repetition loop both the sequential and the parallel paths run, so
/// they cannot drift apart.
void run_repetitions(const FatTree& tree, const ExperimentConfig& config,
                     Scheduler& scheduler, LinkState& state,
                     std::size_t rep_begin, std::size_t rep_end,
                     obs::LinkTelemetry* telemetry, std::span<double> ratios,
                     std::uint64_t& total_requests,
                     std::uint64_t& total_granted) {
  // One verifier per chunk, so its scratch is sized once, not per batch.
  const ScheduleVerifier verifier(tree, VerifyOptions{config.allow_residual});
  for (std::size_t rep = rep_begin; rep < rep_end; ++rep) {
    // Independent, reproducible streams per repetition: one for the
    // workload, one for the scheduler's internal randomness. Seeds depend
    // only on the repetition index, never on the thread that runs it.
    std::uint64_t mix = config.seed + 0x9e3779b97f4a7c15ULL * (rep + 1);
    Xoshiro256ss workload_rng(splitmix64(mix));
    scheduler.reseed(splitmix64(mix));

    const std::vector<Request> batch =
        generate_pattern(tree, config.pattern, workload_rng, config.workload);
    state.reset();
    const ScheduleResult result = scheduler.schedule(tree, batch, state);
    // Batch boundary: the granted circuits of this repetition are exactly
    // what occupies the fabric now.
    if (telemetry) sample_link_state(state, rep, *telemetry);
    if (config.verify) {
      const Status ok = verifier.verify(batch, result, &state).status();
      FT_REQUIRE_MSG(ok.ok(), ok.message().c_str());
    }
    ratios[rep] = result.schedulability_ratio();
    total_requests += result.outcomes.size();
    total_granted += result.granted_count();
  }
}

/// Per-thread private accumulators, merged in chunk order after the join.
struct RepetitionShard {
  obs::SchedulerProbe probe;
  // Shards keep every sample so the merge can apply the target collector's
  // own series_every to combined sample ordinals (see merge_shard).
  obs::LinkTelemetry telemetry{obs::LinkTelemetryOptions{1, 8}};
  std::uint64_t total_requests = 0;
  std::uint64_t total_granted = 0;
};

}  // namespace

ExperimentPoint run_experiment(const FatTree& tree,
                               const ExperimentConfig& config) {
  FT_REQUIRE(config.repetitions > 0);
  FT_REQUIRE(config.threads >= 1);
  // A trace serializes the run (TraceWriter is not thread-safe and span
  // order is part of the trace contract); otherwise idle threads are shed.
  obs::SchedulerProbe* const probe =
      config.sink ? config.sink->probe : nullptr;
  const std::size_t threads =
      config.sink && config.sink->trace
          ? 1
          : std::min(config.threads, config.repetitions);

  ExperimentPoint point;
  std::vector<double> ratios(config.repetitions, 0.0);

  if (threads == 1) {
    auto scheduler = make_scheduler(config.scheduler, config.seed);
    FT_REQUIRE(scheduler.ok());
    scheduler.value()->set_sink(config.sink);
    LinkState state(tree);
    run_repetitions(tree, config, *scheduler.value(), state, 0,
                    config.repetitions, config.telemetry, ratios,
                    point.total_requests, point.total_granted);
  } else {
    // Validate the scheduler name on the calling thread, where the unknown-
    // name contract failure is attributable to the caller.
    FT_REQUIRE(make_scheduler(config.scheduler, config.seed).ok());
    std::vector<RepetitionShard> shards(threads);
    exec::ThreadPool pool(threads);
    pool.run([&](std::size_t k) {
      const exec::ChunkRange chunk =
          exec::chunk_range(config.repetitions, threads, k);
      if (chunk.empty()) return;
      auto scheduler = make_scheduler(config.scheduler, config.seed);
      FT_REQUIRE(scheduler.ok());
      RepetitionShard& shard = shards[k];
      obs::Sink shard_sink{.probe = &shard.probe};
      scheduler.value()->set_sink(probe ? &shard_sink : nullptr);
      LinkState state(tree);
      run_repetitions(tree, config, *scheduler.value(), state, chunk.begin,
                      chunk.end, config.telemetry ? &shard.telemetry : nullptr,
                      ratios, shard.total_requests, shard.total_granted);
    });
    // Deterministic reduce: chunk order == repetition order, so the merged
    // probe/telemetry equal the sequential run's field for field.
    for (RepetitionShard& shard : shards) {
      point.total_requests += shard.total_requests;
      point.total_granted += shard.total_granted;
      if (probe) probe->merge_from(shard.probe);
      if (config.telemetry) config.telemetry->merge_shard(shard.telemetry);
    }
  }

  point.schedulability = Summary::from(ratios);
  if (probe) {
    point.reject_by_level = probe->reject_by_level();
    point.total_rejected = probe->rejects();
  }
  return point;
}

}  // namespace ftsched
