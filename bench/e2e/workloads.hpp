// The four end-to-end workloads of the ftsched_e2e benchmark.
//
// Each workload drives the library from outside through its public calls,
// on FT(3,16) (4096 PEs), single-threaded, as a closed loop: one client
// issues the next call only after the previous one returned. Work comes in
// fixed-size rounds whose inputs follow from the seed alone; the timed phase
// runs rounds until --seconds have passed, so a faster build runs more of
// the same input sequence, never different inputs. Between rounds a
// HostSpeed sample measures how slow the host is at that moment.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ftsched::e2e {

struct RunConfig {
  std::uint64_t seed = 2006;
  double seconds = 10.0;
  /// One small round, no time box (the ctest smoke size).
  bool smoke = false;
};

struct RunResult {
  /// Empty when every correctness gate held; else the first failure.
  std::string failure;
  std::uint64_t failed = 0;  ///< library calls that returned an error

  /// Deterministic counts over the workload's counted rounds (gated by
  /// --expect name=value).
  std::map<std::string, std::uint64_t> counts;

  // --- End-to-end inputs (untraced timed phase) -----------------------------
  // Times and rates are at reference host speed: divided by (rates:
  // multiplied by) the HostSpeed slowdown measured around them.
  std::vector<double> setup_s;  ///< median of each set-up burst
  std::uint64_t decided = 0;    ///< requests/ops decided in timed calls
  std::uint64_t granted = 0;    ///< schedulability numerator (counted rounds)
  std::uint64_t asked = 0;      ///< schedulability denominator
  std::uint64_t rounds = 0;
  std::uint64_t steady_rounds = 0;  ///< rounds whose calls fed window_tail
  std::uint64_t samples = 0;          ///< unit calls timed
  std::vector<double> round_slowdown;  ///< HostSpeed slowdown, per round
  std::vector<double> round_rate;     ///< decided per timed second, per round
  std::vector<double> round_p50_us;   ///< unit-call p50, per round
  /// p99 of unit-call latency / its round's p50, per full window; the one
  /// partial window when none filled.
  std::vector<double> window_tail;
  /// Wall of the timed phase, HostSpeed samples not included.
  double loop_s = 0.0;

  // --- Traced run -----------------------------------------------------------
  std::uint64_t traced_rounds = 0;
  double traced_loop_s = 0.0;
  /// Per-layer values computed by the workload itself (counts, medians,
  /// per-request times); main() adds the span-derived shares.
  std::map<std::string, double> layer;
};

class SpanTrace;

RunResult run_fig9(const RunConfig& config, SpanTrace* trace);
RunResult run_admit(const RunConfig& config, SpanTrace* trace);
RunResult run_churn(const RunConfig& config, SpanTrace* trace);
RunResult run_recovery(const RunConfig& config, SpanTrace* trace);

}  // namespace ftsched::e2e
