// ExperimentRunner — the engine behind every figure bench.
//
// One experiment point = (tree, scheduler, pattern, repetitions). The runner
// regenerates the workload from a deterministic per-repetition seed, resets
// the link state, schedules, optionally verifies the result against the
// PathVerifier, and aggregates the schedulability ratios into a Summary.
// This keeps bench binaries down to declaring their parameter grid.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/verifier.hpp"
#include "obs/link_telemetry.hpp"
#include "obs/sink.hpp"
#include "stats/summary.hpp"
#include "workload/patterns.hpp"

namespace ftsched {

struct ExperimentConfig {
  std::string scheduler = "levelwise";
  TrafficPattern pattern = TrafficPattern::kRandomPermutation;
  WorkloadOptions workload;
  std::size_t repetitions = 100;  ///< the paper's 100 permutations per point
  std::uint64_t seed = 2006;      ///< base seed (see repetition_seed)
  bool verify = true;             ///< verify every repetition's schedule
  /// Set for schedulers deliberately run in no-release mode ("local-hold"):
  /// relaxes the final-state check to subset semantics.
  bool allow_residual = false;

  /// Worker threads for the repetition fan-out. Repetitions draw from
  /// independent per-repetition seed streams (repetition_seed), so they are
  /// partitioned into `threads` contiguous lanes (exec::parallel_chunks),
  /// each run on a private scheduler + LinkState with private probe and
  /// telemetry shards, and the shards are merged back in repetition order:
  /// every ExperimentPoint field is bit-identical at any thread count
  /// (tested; see docs/PERFORMANCE.md for the argument). Clamped to
  /// repetitions; a sink with a trace runs one lane (obs::lane_count).
  std::size_t threads = 1;

  /// Optional instrumentation, attached to the scheduler for the whole
  /// experiment: its probe accumulates every repetition, and every
  /// repetition's batch spans land in its trace (keep repetitions small
  /// when tracing). Must outlive the run_experiment call. Null = no
  /// overhead beyond a branch.
  obs::Sink* sink = nullptr;
  /// Optional fabric telemetry, same lifetime rule. The post-schedule
  /// LinkState of every repetition is sampled at t = repetition index (one
  /// batch-boundary snapshot per batch), so the series shows how full each
  /// level ends up across the experiment. Null = no sampling, one branch.
  obs::LinkTelemetry* telemetry = nullptr;
};

struct ExperimentPoint {
  Summary schedulability;
  std::uint64_t total_requests = 0;
  std::uint64_t total_granted = 0;

  /// Probe aggregates, filled only when config.sink carried a probe:
  /// rejections by first-failure level (index = level) and their sum, which
  /// by the probe's reporting contract equals total_requests - total_granted.
  std::vector<std::uint64_t> reject_by_level;
  std::uint64_t total_rejected = 0;
};

/// Runs one experiment point. Aborts (contract) on unknown scheduler name —
/// bench grids are static; use make_scheduler directly for user input.
ExperimentPoint run_experiment(const FatTree& tree,
                               const ExperimentConfig& config);

}  // namespace ftsched
