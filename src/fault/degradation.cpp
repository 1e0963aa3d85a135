#include "fault/degradation.hpp"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fabric_manager.hpp"
#include "fault/fault_timeline.hpp"
#include "linkstate/imbalance.hpp"

namespace ftsched {

namespace {

/// Per-thread accumulators, merged in chunk (== repetition) order.
struct DegradationShard {
  std::uint64_t total_requests = 0;
  std::uint64_t fail_events = 0;
  std::uint64_t repair_events = 0;
  std::uint64_t victims = 0;
  std::uint64_t recovered = 0;
  std::uint64_t retries = 0;
  std::uint64_t shed = 0;
  std::uint64_t permanent_rejects = 0;
  std::uint64_t abandoned = 0;
  std::vector<double> recovery_latency;
  std::vector<double> retry_latency;
};

double resolve_mtbf(const DegradationConfig& config) {
  if (config.mtbf > 0.0) return config.mtbf;
  if (config.fault_rate > 0.0) {
    return FaultTimeline::mtbf_for_fault_rate(config.fault_rate,
                                              config.horizon);
  }
  return 0.0;  // fault-free
}

void run_repetitions(const FatTree& tree, const DegradationConfig& config,
                     double mtbf, double mttr, std::size_t rep_begin,
                     std::size_t rep_end, std::span<double> first_attempt,
                     std::span<double> open_ratio,
                     std::span<double> ever_granted,
                     std::span<double> imb_max_over_mean,
                     std::span<double> imb_cov, std::span<double> imb_hotspot,
                     obs::FlightRing* ring, DegradationShard& shard) {
  FabricOptions options;
  options.scheduler = config.scheduler;
  options.seed = config.seed;
  options.retry = config.retry;
  options.max_pending = config.max_pending;
  options.horizon = config.horizon;
  options.deep_verify = config.deep_verify;
  options.flight = ring;

  for (std::size_t rep = rep_begin; rep < rep_end; ++rep) {
    // Request ids stay unique across repetitions: the per-rep namespace
    // leaves 24 bits for FabricManager seq numbers.
    options.flight_base =
        config.flight_base + ((static_cast<std::uint64_t>(rep) + 1) << 24U);
    // Identical to run_experiment's per-repetition derivation: seeds depend
    // only on the repetition index, never on the thread running it.
    std::uint64_t mix = config.seed + 0x9e3779b97f4a7c15ULL * (rep + 1);
    Xoshiro256ss workload_rng(splitmix64(mix));
    const std::vector<Request> batch =
        generate_pattern(tree, config.pattern, workload_rng, config.workload);

    Simulator sim;
    FabricManager fabric(tree, sim, options);
    fabric.reseed(splitmix64(mix));
    FaultTimeline timeline;
    if (mtbf > 0.0) {
      std::uint64_t timeline_mix = mix ^ 0xfa017e11eULL;
      timeline = FaultTimeline::from_mtbf(tree, mtbf, mttr, config.horizon,
                                          splitmix64(timeline_mix));
    }
    fabric.install(timeline);
    fabric.submit(batch, 0);
    sim.run();
    if (config.verify) fabric.verify_invariants();

    first_attempt[rep] = fabric.first_attempt_ratio();
    open_ratio[rep] = fabric.open_ratio();
    ever_granted[rep] = fabric.ever_granted_ratio();
    // Horizon-end load quality on the live residual fabric. Rep-indexed
    // like the ratios above, so the summaries are thread-count-invariant.
    const ImbalanceReport imbalance =
        measure_imbalance(fabric.connections().state());
    imb_max_over_mean[rep] = imbalance.worst_max_over_mean;
    imb_cov[rep] = imbalance.worst_cov;
    imb_hotspot[rep] = imbalance.worst_hotspot;
    const FabricStats& stats = fabric.stats();
    shard.total_requests += stats.submitted;
    shard.fail_events += stats.fail_events;
    shard.repair_events += stats.repair_events;
    shard.victims += stats.victims;
    shard.recovered += stats.recovered;
    shard.retries += stats.retries;
    shard.shed += stats.shed;
    shard.permanent_rejects += stats.permanent_rejects;
    shard.abandoned += stats.abandoned;
    shard.recovery_latency.insert(shard.recovery_latency.end(),
                                  stats.recovery_latency.begin(),
                                  stats.recovery_latency.end());
    shard.retry_latency.insert(shard.retry_latency.end(),
                               stats.retry_latency.begin(),
                               stats.retry_latency.end());
  }
}

void merge_shard(DegradationPoint& point, DegradationShard& shard) {
  point.total_requests += shard.total_requests;
  point.fail_events += shard.fail_events;
  point.repair_events += shard.repair_events;
  point.victims += shard.victims;
  point.recovered += shard.recovered;
  point.retries += shard.retries;
  point.shed += shard.shed;
  point.permanent_rejects += shard.permanent_rejects;
  point.abandoned += shard.abandoned;
  point.recovery_latency.insert(point.recovery_latency.end(),
                                shard.recovery_latency.begin(),
                                shard.recovery_latency.end());
  point.retry_latency.insert(point.retry_latency.end(),
                             shard.retry_latency.begin(),
                             shard.retry_latency.end());
}

}  // namespace

DegradationPoint run_degradation(const FatTree& tree,
                                 const DegradationConfig& config) {
  FT_REQUIRE(config.repetitions > 0);
  FT_REQUIRE(config.threads >= 1);
  FT_REQUIRE(config.horizon >= 1);
  // Validate the scheduler name on the calling thread.
  FT_REQUIRE(make_scheduler(config.scheduler, config.seed).ok());

  const double mtbf = resolve_mtbf(config);
  const double mttr =
      config.mttr > 0.0
          ? config.mttr
          : std::max(1.0, static_cast<double>(config.horizon) / 8.0);

  DegradationPoint point;
  std::vector<double> first_attempt(config.repetitions, 0.0);
  std::vector<double> open_ratio(config.repetitions, 0.0);
  std::vector<double> ever_granted(config.repetitions, 0.0);
  std::vector<double> imb_max_over_mean(config.repetitions, 0.0);
  std::vector<double> imb_cov(config.repetitions, 0.0);
  std::vector<double> imb_hotspot(config.repetitions, 0.0);

  const std::size_t threads = std::min(config.threads, config.repetitions);
  FT_REQUIRE_MSG(config.flight == nullptr ||
                     config.flight->ring_count() >= threads,
                 "flight recorder needs one ring per degradation thread");
  if (threads == 1) {
    DegradationShard shard;
    run_repetitions(tree, config, mtbf, mttr, 0, config.repetitions,
                    first_attempt, open_ratio, ever_granted, imb_max_over_mean,
                    imb_cov, imb_hotspot,
                    config.flight ? &config.flight->ring(0) : nullptr, shard);
    merge_shard(point, shard);
  } else {
    std::vector<DegradationShard> shards(threads);
    exec::ThreadPool pool(threads);
    pool.run([&](std::size_t k) {
      const exec::ChunkRange chunk =
          exec::chunk_range(config.repetitions, threads, k);
      if (chunk.empty()) return;
      run_repetitions(tree, config, mtbf, mttr, chunk.begin, chunk.end,
                      first_attempt, open_ratio, ever_granted,
                      imb_max_over_mean, imb_cov, imb_hotspot,
                      config.flight ? &config.flight->ring(k) : nullptr,
                      shards[k]);
    });
    // Chunk order == repetition order: bit-identical to the sequential run.
    for (DegradationShard& shard : shards) merge_shard(point, shard);
  }

  point.schedulability = Summary::from(first_attempt);
  point.open_ratio = Summary::from(open_ratio);
  point.ever_granted = Summary::from(ever_granted);
  point.imbalance_max_over_mean = Summary::from(imb_max_over_mean);
  point.imbalance_cov = Summary::from(imb_cov);
  point.imbalance_hotspot = Summary::from(imb_hotspot);
  return point;
}

}  // namespace ftsched
