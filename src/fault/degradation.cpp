#include "fault/degradation.hpp"

#include <algorithm>
#include <vector>

#include "core/registry.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_timeline.hpp"
#include "linkstate/imbalance.hpp"

namespace ftsched {

double DegradationConfig::resolved_mtbf() const {
  if (mtbf > 0.0) return mtbf;
  if (fault_rate > 0.0) {
    return FaultTimeline::mtbf_for_fault_rate(fault_rate, horizon);
  }
  return 0.0;  // fault-free
}

double DegradationConfig::resolved_mttr() const {
  if (mttr > 0.0) return mttr;
  return std::max(1.0, static_cast<double>(horizon) / 8.0);
}

namespace {

/// Repetition `rep` of a degradation point: a fresh Simulator +
/// FabricManager, repetition rep's workload batch submitted at t = 0 and its
/// fault timeline driven to the horizon, then the invariant bundle when
/// config.verify. `done` sees the fabric at the horizon. `sink` (null =
/// detached) is attached with the repetition's request-id namespace,
/// id_base + ((rep + 1) << 24).
void run_episode(const FatTree& tree, const DegradationConfig& config,
                 std::size_t rep, const obs::Sink* sink,
                 const std::function<void(const FabricManager&)>& done) {
  FabricOptions options;
  options.scheduler = config.scheduler;
  options.seed = config.seed;
  options.retry = config.retry;
  options.max_pending = config.max_pending;
  options.horizon = config.horizon;
  options.deep_verify = config.deep_verify;
  obs::Sink rep_sink;
  if (sink) {
    // Request ids stay unique across repetitions: the per-rep namespace
    // leaves 24 bits for FabricManager seq numbers.
    rep_sink = *sink;
    rep_sink.id_base += (static_cast<std::uint64_t>(rep) + 1) << 24U;
    options.sink = &rep_sink;
  }

  // run_experiment's per-repetition streams, then the timeline's.
  std::uint64_t mix = repetition_seed(config.seed, rep);
  Xoshiro256ss workload_rng(splitmix64(mix));
  const std::vector<Request> batch =
      generate_pattern(tree, config.pattern, workload_rng, config.workload);

  Simulator sim;
  FabricManager fabric(tree, sim, options);
  fabric.reseed(splitmix64(mix));
  FaultTimeline timeline;
  const double mtbf = config.resolved_mtbf();
  if (mtbf > 0.0) {
    std::uint64_t timeline_mix = mix ^ 0xfa017e11eULL;
    timeline = FaultTimeline::from_mtbf(tree, mtbf, config.resolved_mttr(),
                                        config.horizon,
                                        splitmix64(timeline_mix));
  }
  fabric.install(timeline);
  fabric.submit(batch, 0);
  sim.run();
  if (config.verify) fabric.verify_invariants();
  done(fabric);
}

}  // namespace

DegradationPoint run_degradation(
    const FatTree& tree, const DegradationConfig& config,
    const std::function<void(std::size_t rep, const FabricManager&)>& done) {
  FT_REQUIRE(config.repetitions > 0);
  FT_REQUIRE(config.threads >= 1);
  FT_REQUIRE(config.horizon >= 1);
  // Validate the scheduler name on the calling thread.
  FT_REQUIRE(make_scheduler(config.scheduler, config.seed).ok());
  const std::size_t lanes =
      obs::lane_count(config.sink, config.threads, config.repetitions);
  FT_REQUIRE_MSG(config.sink == nullptr || config.sink->flight == nullptr ||
                     config.sink->flight->ring_count() >= lanes,
                 "flight recorder needs one ring per degradation lane");

  // Per-repetition slots, folded in repetition order after the join, so
  // every field is thread-count-invariant.
  const std::size_t reps = config.repetitions;
  std::vector<double> first_attempt(reps), open_ratio(reps), ever_granted(reps);
  std::vector<double> imb_max_over_mean(reps), imb_cov(reps), imb_hotspot(reps);
  std::vector<FabricStats> stats(reps);
  exec::ThreadPool pool(lanes);
  exec::parallel_chunks(pool, reps, [&](std::size_t k, exec::ChunkRange chunk) {
    obs::Sink lane_sink = config.sink ? *config.sink : obs::Sink{};
    lane_sink.lane = k;
    for (std::size_t rep = chunk.begin; rep < chunk.end; ++rep) {
      run_episode(
          tree, config, rep, config.sink ? &lane_sink : nullptr,
          [&](const FabricManager& fabric) {
            first_attempt[rep] = fabric.first_attempt_ratio();
            open_ratio[rep] = fabric.open_ratio();
            ever_granted[rep] = fabric.ever_granted_ratio();
            // Horizon-end load quality on the live residual fabric.
            const ImbalanceReport imbalance =
                measure_imbalance(fabric.connections().state());
            imb_max_over_mean[rep] = imbalance.worst_max_over_mean;
            imb_cov[rep] = imbalance.worst_cov;
            imb_hotspot[rep] = imbalance.worst_hotspot;
            stats[rep] = fabric.stats();
            if (done) done(rep, fabric);
          });
    }
  });

  DegradationPoint point;
  point.schedulability = Summary::from(first_attempt);
  point.open_ratio = Summary::from(open_ratio);
  point.ever_granted = Summary::from(ever_granted);
  point.imbalance_max_over_mean = Summary::from(imb_max_over_mean);
  point.imbalance_cov = Summary::from(imb_cov);
  point.imbalance_hotspot = Summary::from(imb_hotspot);
  for (const FabricStats& s : stats) {
    point.total_requests += s.submitted;
    point.fail_events += s.fail_events;
    point.repair_events += s.repair_events;
    point.victims += s.victims;
    point.recovered += s.recovered;
    point.retries += s.retries;
    point.shed += s.shed;
    point.permanent_rejects += s.permanent_rejects;
    point.abandoned += s.abandoned;
    point.recovery_latency.insert(point.recovery_latency.end(),
                                  s.recovery_latency.begin(),
                                  s.recovery_latency.end());
    point.retry_latency.insert(point.retry_latency.end(),
                               s.retry_latency.begin(),
                               s.retry_latency.end());
  }
  return point;
}

}  // namespace ftsched
