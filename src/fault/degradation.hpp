// Degradation experiments — the fault-sweep counterpart of run_experiment.
//
// One point = (tree, scheduler, pattern, fault intensity, retry policy,
// repetitions). Each repetition builds a fresh Simulator + FabricManager,
// submits one workload batch at t = 0, drives a per-repetition MTBF/MTTR
// fault timeline to the horizon, and aggregates service and recovery
// metrics. Seeds mirror run_experiment's derivation exactly, so at fault
// intensity zero the first-attempt schedulability summary is bit-identical
// to the one-shot engine's — the property the fig_degradation baseline
// check pins. Repetitions fan out over threads with ordered merges: every
// output field is bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "des/simulator.hpp"
#include "fault/retry_policy.hpp"
#include "obs/sink.hpp"
#include "stats/summary.hpp"
#include "util/contracts.hpp"
#include "workload/patterns.hpp"

namespace ftsched {

struct DegradationConfig {
  std::string scheduler = "levelwise";
  TrafficPattern pattern = TrafficPattern::kRandomPermutation;
  WorkloadOptions workload;
  std::size_t repetitions = 100;
  std::uint64_t seed = 2006;
  std::size_t threads = 1;

  /// Fault intensity: expected fraction of cables failing at least once
  /// within the horizon (0 = no faults). Ignored when mtbf > 0.
  double fault_rate = 0.0;
  double mtbf = 0.0;     ///< explicit mean time between failures, ticks
  double mttr = 0.0;     ///< mean time to repair; 0 → horizon / 8
  SimTime horizon = 1000;

  RetryPolicy retry = RetryPolicy::backoff(1, 2.0, 64, 8);
  std::size_t max_pending = 0;  ///< retry admission gate; 0 = unlimited

  bool verify = true;       ///< end-of-run invariant bundle per repetition
  bool deep_verify = false; ///< invariants after every event (chaos/tests)

  /// Instrumentation (null = detached), handed to each repetition's
  /// FabricManager. Its ledger must own at least min(threads, repetitions)
  /// rings: chunk k records into ring k (the sink's lane) exclusively, so
  /// tracking is race-free and the stitched dump is thread-count-invariant.
  /// Repetition `rep` namespaces its request ids at
  /// `id_base + ((rep + 1) << 24)`. A trace forces one thread.
  obs::Sink* sink = nullptr;
};

struct DegradationPoint {
  /// First-attempt batch schedulability per repetition — fig9's metric.
  Summary schedulability;
  /// Circuits still open at the horizon / submitted — the service level
  /// after faults, revocations, and recoveries.
  Summary open_ratio;
  /// Distinct requests granted at least once / submitted.
  Summary ever_granted;

  // Load-quality of the residual fabric at the horizon, one sample per
  // repetition (worst level/direction of measure_imbalance — see
  // linkstate/imbalance.hpp). These are what separates a balanced policy
  // from an oblivious one on a damaged fabric even when raw schedulability
  // ties: lower max-over-mean / CoV / hotspot means the surviving planes
  // carry the load evenly instead of piling onto the first free column.
  Summary imbalance_max_over_mean;
  Summary imbalance_cov;
  Summary imbalance_hotspot;

  std::uint64_t total_requests = 0;
  std::uint64_t fail_events = 0;
  std::uint64_t repair_events = 0;
  std::uint64_t victims = 0;
  std::uint64_t recovered = 0;
  std::uint64_t retries = 0;
  std::uint64_t shed = 0;
  std::uint64_t permanent_rejects = 0;
  std::uint64_t abandoned = 0;

  /// Latency samples merged in repetition order (grant order within one).
  std::vector<double> recovery_latency;
  std::vector<double> retry_latency;

  double recovery_success_ratio() const {
    if (victims == 0) return 1.0;
    return static_cast<double>(recovered) / static_cast<double>(victims);
  }
};

/// Runs one degradation point. Aborts (contract) on unknown scheduler name.
DegradationPoint run_degradation(const FatTree& tree,
                                 const DegradationConfig& config);

}  // namespace ftsched
