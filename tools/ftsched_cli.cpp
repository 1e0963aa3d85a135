// ftsched — command-line front end to the library.
//
//   ftsched info <levels> <m> [w]          topology summary + validation
//   ftsched dot <levels> <m> [w]           Graphviz dump (small trees)
//   ftsched schedule <levels> <w[:w2]> <scheduler> <pattern> <reps> [seed]
//                                          schedulability experiment
//                                          (m:w selects an asymmetric tree,
//                                          e.g. `schedule 3 4:2 ...`)
//   ftsched degrade <levels> <m[:w]> <scheduler> <pattern> <reps> [seed]
//                                          fault-sweep experiment: MTBF/MTTR
//                                          cable outages, circuit revocation,
//                                          retry/backoff recovery
//   ftsched sweep <scheduler> [reps]       the paper's full Figure-9 grid,
//                                          CSV on stdout
//   ftsched soak <levels> <m[:w]> [scheduler] [seed]
//                                          chaos soak: seeded fail/repair/
//                                          open/close interleavings with the
//                                          invariant bundle re-checked every
//                                          epoch; on violation the script is
//                                          shrunk to a minimal reproducer
//                                          (exit 1). `--replay=FILE` re-runs
//                                          a reproducer instead.
//   ftsched hw <levels> <w>                hardware timing + resources
//   ftsched schedulers                     list registry names
//   ftsched patterns                       list traffic pattern names
//
// Observability flags (schedule command, may appear anywhere):
//   --probe                attach a SchedulerProbe; prints per-level
//                          rejection counts after the summary
//   --metrics-out=FILE     write probe metrics as JSON lines (implies --probe)
//   --trace-out=FILE       write a Chrome trace (chrome://tracing, Perfetto)
//   --telemetry-out=FILE   sample per-link fabric occupancy at every batch
//                          boundary and write the time-series JSONL
//                          (ftreport ingests it; see docs/OBSERVABILITY.md)
//
// Execution flags (schedule, degrade, and sweep commands):
//   --threads=N            fan repetitions over N worker threads (0 = all
//                          hardware threads). Results are bit-identical at
//                          any thread count; see docs/PERFORMANCE.md.
//   --flight-dump=FILE     degrade only: attach the lifecycle flight
//                          recorder, arm the dump-on-contract-failure hook,
//                          and write the self-describing JSONL dump (format
//                          v1; decode with ftreport --flight=FILE)
//
// Fault flags (degrade command; see docs/ROBUSTNESS.md):
//   --fault-rate=F         expected fraction of cables failing at least once
//                          within the horizon (default 0; ignored when
//                          --fault-mtbf is given)
//   --fault-mtbf=T         explicit mean time between failures, ticks
//   --fault-mttr=T         mean time to repair (default max(1, horizon / 8))
//   --retry-policy=SPEC    none | immediate[:R] | fixed:D[:R] |
//                          backoff:B[:R[:J]] (default backoff:1:8)
//   --horizon=N            simulated ticks per repetition (default 1000)
//
// Soak flags (soak command; see docs/ROBUSTNESS.md):
//   --ops=N                chaos operations to generate (default 4096)
//   --epoch=N              invariant-check cadence in executed ops
//                          (default 64)
//   --max-pending=N        RetryQueue admission gate (default 256)
//   --retry-policy=SPEC    retry policy under churn (default backoff:1:4)
//   --soak-out=FILE        write the minimal reproducer script here on
//                          violation (default chaos_repro.txt)
//   --json=FILE            write the soak summary as JSON (ftreport renders
//                          it and exits 2 when the artifact records a
//                          violation)
//   --replay=FILE          re-run a reproducer script; exit 1 if it still
//                          violates, 0 if clean
//   --no-shrink            report the violation without shrinking
//   --flight-dump=FILE     also valid for soak: lifecycle ledger of the
//                          primary run
//
// Any other `--` flag, a surplus positional argument, a tree dimension,
// count, seed, --threads, --horizon, --ops, --epoch or --max-pending that is
// not a plain unsigned integer, or a --fault-rate, --fault-mtbf or
// --fault-mttr that is not a finite non-negative decimal number is a usage
// error (exit 2), never a silently different experiment.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/registry.hpp"
#include "exec/thread_pool.hpp"
#include "fault/chaos_soak.hpp"
#include "fault/degradation.hpp"
#include "fault/fabric_manager.hpp"
#include "fault/retry_policy.hpp"
#include "hw/resources.hpp"
#include "hw/timing_model.hpp"
#include "obs/env.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/link_telemetry.hpp"
#include "obs/metrics.hpp"
#include "obs/sched_probe.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "stats/runner.hpp"
#include "topology/dot.hpp"
#include "topology/validate.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

using namespace ftsched;

namespace {

const std::map<std::string, TrafficPattern>& pattern_names() {
  static const std::map<std::string, TrafficPattern> names{
      {"random", TrafficPattern::kRandomPermutation},
      {"reversal", TrafficPattern::kDigitReversal},
      {"rotation", TrafficPattern::kDigitRotation},
      {"transpose", TrafficPattern::kTranspose},
      {"complement", TrafficPattern::kComplement},
      {"shift", TrafficPattern::kShift},
      {"neighbor", TrafficPattern::kNeighbor},
      {"hotspot", TrafficPattern::kHotSpot},
  };
  return names;
}

int usage() {
  std::cerr << "usage: ftsched <info|dot|schedule|degrade|sweep|soak|hw|"
               "schedulers|patterns> ...\n"
               "  info <levels> <m> [w]\n"
               "  dot <levels> <m> [w]\n"
               "  schedule <levels> <m[:w]> <scheduler> <pattern> <reps>"
               " [seed]\n"
               "           [--probe] [--metrics-out=FILE] [--trace-out=FILE]\n"
               "           [--threads=N]\n"
               "  degrade <levels> <m[:w]> <scheduler> <pattern> <reps>"
               " [seed]\n"
               "          [--fault-rate=F | --fault-mtbf=T] [--fault-mttr=T]\n"
               "          [--retry-policy=SPEC] [--horizon=N] [--threads=N]\n"
               "          [--metrics-out=FILE] [--trace-out=FILE]\n"
               "          [--flight-dump=FILE]\n"
               "  sweep <scheduler> [reps] [--threads=N]\n"
               "  soak <levels> <m[:w]> [scheduler] [seed]\n"
               "       [--ops=N] [--epoch=N] [--max-pending=N]\n"
               "       [--retry-policy=SPEC] [--soak-out=FILE] [--no-shrink]\n"
               "       [--json=FILE] [--flight-dump=FILE]\n"
               "  soak --replay=FILE   re-run a chaos reproducer script\n"
               "  hw <levels> <w>\n";
  return 2;
}

/// Reads a count, seed or horizon: a plain unsigned integer, never a sign,
/// a flag or trailing text read as 0 or wrapped.
bool read_unsigned(const char* what, std::string_view text,
                   std::uint64_t& out) {
  const std::optional<std::uint64_t> value = parse_unsigned(text);
  if (!value) {
    std::cerr << "bad " << what << " '" << text
              << "' (expected an unsigned integer)\n";
    return false;
  }
  out = *value;
  return true;
}

/// Reads a fault rate or time: a finite, non-negative decimal number,
/// never a sign, "inf" or trailing text read as something else.
bool read_non_negative(const char* what, std::string_view text, double& out) {
  const std::optional<double> value = parse_non_negative(text);
  if (!value) {
    std::cerr << "bad " << what << " '" << text
              << "' (expected a non-negative number)\n";
    return false;
  }
  out = *value;
  return true;
}

/// Builds the tree from its arguments: `levels` and `m`, then w after a
/// colon in `m` where `colon_w` allows it (`m:w`), else from the separate
/// argument `w` when given, else w = m. An argument that is not a plain
/// unsigned 32-bit integer is a usage error (2), a shape FatTree::create
/// rejects an error (1): either sets `exit_code` and returns nullopt.
std::optional<FatTree> tree_from_args(const char* levels, std::string_view m,
                                      const char* w, bool colon_w,
                                      int& exit_code) {
  std::optional<std::string_view> w_text;
  if (w != nullptr) w_text = w;
  const std::size_t colon = colon_w ? m.find(':') : std::string_view::npos;
  if (colon != std::string_view::npos) {
    w_text = m.substr(colon + 1);
    m = m.substr(0, colon);
  }
  std::uint64_t dims[3] = {0, 0, 0};
  if (!read_unsigned("levels", levels, dims[0]) ||
      !read_unsigned("m", m, dims[1]) ||
      (w_text && !read_unsigned("w", *w_text, dims[2]))) {
    exit_code = usage();
    return std::nullopt;
  }
  if (!w_text) dims[2] = dims[1];
  if (std::max({dims[0], dims[1], dims[2]}) > UINT32_MAX) {
    std::cerr << "tree dimension does not fit in 32 bits\n";
    exit_code = usage();
    return std::nullopt;
  }
  auto tree_or = FatTree::create(FatTreeParams{
      static_cast<std::uint32_t>(dims[0]), static_cast<std::uint32_t>(dims[1]),
      static_cast<std::uint32_t>(dims[2])});
  if (!tree_or.ok()) {
    std::cerr << tree_or.message() << "\n";
    exit_code = 1;
    return std::nullopt;
  }
  return std::move(tree_or).value();
}

/// Repetition counts must also be at least 1.
bool read_reps(const char* text, std::size_t& out) {
  std::uint64_t reps = 0;
  if (!read_unsigned("reps", text, reps)) return false;
  if (reps == 0) {
    std::cerr << "reps must be at least 1\n";
    return false;
  }
  out = static_cast<std::size_t>(reps);
  return true;
}

/// The most argv entries (program and command included) each command takes;
/// anything past that is a usage error rather than silently ignored.
int max_argc(const std::string& command) {
  if (command == "info" || command == "dot") return 5;
  if (command == "schedule" || command == "degrade") return 8;
  if (command == "sweep" || command == "hw") return 4;
  if (command == "soak") return 6;
  return 2;  // schedulers, patterns, and unknown commands
}

/// Non-positional options, extracted from argv before positional parsing.
struct ObsFlags {
  std::string metrics_out;
  std::string trace_out;
  std::string telemetry_out;
  bool probe = false;
  /// Worker threads for the repetition fan-out (schedule/sweep commands).
  /// 0 = use every hardware thread. Results are bit-identical at any value;
  /// see docs/PERFORMANCE.md.
  std::size_t threads = 1;
  // Fault flags (degrade command).
  double fault_rate = 0.0;
  double fault_mtbf = 0.0;
  double fault_mttr = 0.0;
  std::string retry_policy = "backoff:1:8";
  bool retry_policy_set = false;  ///< soak keeps its own default otherwise
  SimTime horizon = 1000;
  std::string flight_dump;  ///< degrade/soak: lifecycle ledger dump path
  // Soak flags (soak command).
  std::uint64_t soak_ops = 4096;
  std::uint64_t soak_epoch = 64;
  std::uint64_t soak_max_pending = 256;
  std::string soak_out = "chaos_repro.txt";
  std::string soak_json;  ///< machine-readable soak summary for ftreport
  std::string soak_replay;
  bool soak_shrink = true;
};

/// "metrics.jsonl" -> "metrics.rep3.jsonl" — one artifact per repetition, so
/// a sweep's observability output is never silently rep-0-only.
std::string rep_path(const std::string& base, std::size_t rep) {
  const std::size_t dot = base.rfind('.');
  const std::string suffix = ".rep" + std::to_string(rep);
  if (dot == std::string::npos || base.find('/', dot) != std::string::npos) {
    return base + suffix;
  }
  return base.substr(0, dot) + suffix + base.substr(dot);
}

int cmd_info(int argc, char** argv) {
  if (argc < 4) return usage();
  int tree_exit = 0;
  const std::optional<FatTree> tree_arg =
      tree_from_args(argv[2], argv[3], argc > 4 ? argv[4] : nullptr,
                     /*colon_w=*/false, tree_exit);
  if (!tree_arg) return tree_exit;
  const FatTree& tree = *tree_arg;
  std::cout << "FT(l=" << tree.levels() << ", m=" << tree.child_arity()
            << ", w=" << tree.parent_arity() << ")\n";
  std::cout << "  processing elements : " << tree.node_count() << "\n";
  std::cout << "  switches            : " << tree.total_switches() << "\n";
  TextTable table({"level", "switches", "up cables", "label radices"});
  for (std::uint32_t h = 0; h < tree.levels(); ++h) {
    std::string radices;
    const MixedRadix& sys = tree.label_system(h);
    for (std::size_t i = 0; i < sys.digit_count(); ++i) {
      if (i) radices += "x";
      radices += std::to_string(sys.radix(sys.digit_count() - 1 - i));
    }
    if (radices.empty()) radices.push_back('-');
    table.add_row({std::to_string(h), std::to_string(tree.switches_at(h)),
                   h + 1 < tree.levels() ? std::to_string(tree.cables_at(h))
                                         : "-",
                   radices});
  }
  table.print(std::cout);
  const Status valid = validate_structure(tree);
  std::cout << "  structure validation: "
            << (valid.ok() ? "OK" : valid.message()) << "\n";
  return valid.ok() ? 0 : 1;
}

int cmd_dot(int argc, char** argv) {
  if (argc < 4) return usage();
  int tree_exit = 0;
  const std::optional<FatTree> tree =
      tree_from_args(argv[2], argv[3], argc > 4 ? argv[4] : nullptr,
                     /*colon_w=*/false, tree_exit);
  if (!tree) return tree_exit;
  if (tree->total_switches() > 512) {
    std::cerr << "tree too large to draw usefully (>512 switches)\n";
    return 1;
  }
  export_dot(*tree, std::cout);
  return 0;
}

int cmd_schedule(int argc, char** argv, const ObsFlags& flags) {
  if (argc < 7) return usage();
  // Arity is `m` (symmetric, w = m) or `m:w` (asymmetric, e.g. FT(3,4,2)
  // via `schedule 3 4:2 ...`).
  int tree_exit = 0;
  const std::optional<FatTree> tree =
      tree_from_args(argv[2], argv[3], nullptr, /*colon_w=*/true, tree_exit);
  if (!tree) return tree_exit;
  const auto pattern = pattern_names().find(argv[5]);
  if (pattern == pattern_names().end()) {
    std::cerr << "unknown pattern '" << argv[5] << "'\n";
    return usage();
  }
  ExperimentConfig config;
  config.scheduler = argv[4];
  if (!make_scheduler(config.scheduler).ok()) {
    std::cerr << make_scheduler(config.scheduler).message() << "\n";
    return 1;
  }
  config.pattern = pattern->second;
  if (!read_reps(argv[6], config.repetitions)) return usage();
  if (argc > 7 && !read_unsigned("seed", argv[7], config.seed)) {
    return usage();
  }
  config.allow_residual = config.scheduler == "local-hold";
  config.threads = flags.threads;

  obs::SchedulerProbe probe;
  obs::TraceWriter tracer;
  obs::LinkTelemetry telemetry;
  const bool probing = flags.probe || !flags.metrics_out.empty();
  obs::Sink sink;
  if (probing) sink.probe = &probe;
  if (!flags.trace_out.empty()) sink.trace = &tracer;
  if (sink.probe || sink.trace) config.sink = &sink;
  if (!flags.telemetry_out.empty()) config.telemetry = &telemetry;

  const ExperimentPoint point = run_experiment(*tree, config);
  std::cout << config.scheduler << " on " << to_string(pattern->second)
            << ", " << config.repetitions << " reps:\n";
  std::cout << "  schedulability " << point.schedulability.ratio_string()
            << "  (stddev " << TextTable::pct(point.schedulability.stddev)
            << ")\n";
  std::cout << "  granted " << point.total_granted << " / "
            << point.total_requests << " requests\n";
  if (probing) {
    std::cout << "  rejected " << point.total_rejected
              << " requests, by first-failure level:";
    if (point.reject_by_level.empty()) std::cout << " (none)";
    for (std::size_t h = 0; h < point.reject_by_level.size(); ++h) {
      std::cout << "  L" << h << "=" << point.reject_by_level[h];
    }
    std::cout << "\n";
  }
  if (!flags.metrics_out.empty()) {
    std::ofstream out(flags.metrics_out);
    if (!out) {
      std::cerr << "cannot open " << flags.metrics_out << "\n";
      return 1;
    }
    obs::MetricsRegistry registry;
    probe.export_metrics(registry, reject_reason_name);
    if (!flags.telemetry_out.empty()) telemetry.export_metrics(registry);
    registry.write_jsonl(out);
    std::cout << "  metrics -> " << flags.metrics_out << "\n";
  }
  if (!flags.telemetry_out.empty()) {
    std::ofstream out(flags.telemetry_out);
    if (!out) {
      std::cerr << "cannot open " << flags.telemetry_out << "\n";
      return 1;
    }
    telemetry.write_series_jsonl(out);
    std::cout << "  telemetry -> " << flags.telemetry_out << " ("
              << telemetry.samples() << " samples)\n";
  }
  if (!flags.trace_out.empty()) {
    std::ofstream out(flags.trace_out);
    if (!out) {
      std::cerr << "cannot open " << flags.trace_out << "\n";
      return 1;
    }
    tracer.write(out);
    std::cout << "  trace   -> " << flags.trace_out << " (" << tracer.size()
              << " events)\n";
  }
  return 0;
}

int cmd_degrade(int argc, char** argv, const ObsFlags& flags) {
  if (argc < 7) return usage();
  int tree_exit = 0;
  const std::optional<FatTree> tree_arg =
      tree_from_args(argv[2], argv[3], nullptr, /*colon_w=*/true, tree_exit);
  if (!tree_arg) return tree_exit;
  const FatTree& tree = *tree_arg;
  const auto pattern = pattern_names().find(argv[5]);
  if (pattern == pattern_names().end()) {
    std::cerr << "unknown pattern '" << argv[5] << "'\n";
    return usage();
  }
  auto retry_or = parse_retry_policy(flags.retry_policy);
  if (!retry_or.ok()) {
    std::cerr << retry_or.message() << "\n";
    return 1;
  }

  DegradationConfig config;
  config.scheduler = argv[4];
  if (!make_scheduler(config.scheduler).ok()) {
    std::cerr << make_scheduler(config.scheduler).message() << "\n";
    return 1;
  }
  config.pattern = pattern->second;
  if (!read_reps(argv[6], config.repetitions)) return usage();
  if (argc > 7 && !read_unsigned("seed", argv[7], config.seed)) {
    return usage();
  }
  config.threads = flags.threads;
  config.fault_rate = flags.fault_rate;
  config.mtbf = flags.fault_mtbf;
  config.mttr = flags.fault_mttr;
  config.horizon = flags.horizon;
  config.retry = retry_or.value();

  // The trace collects the fault spans of one repetition at a time: a trace
  // runs one lane, so repetitions reach it in order.
  obs::Sink sink;
  obs::TraceWriter tracer;
  if (!flags.trace_out.empty()) {
    sink.trace = &tracer;
    config.sink = &sink;
  }
  // Lifecycle flight recorder: one ring per degradation lane, armed as the
  // contract-failure black box for the whole run.
  std::optional<obs::FlightRecorder> recorder;
  if (!flags.flight_dump.empty()) {
    recorder.emplace(
        obs::lane_count(&sink, config.threads, config.repetitions));
    sink.flight = &*recorder;
    config.sink = &sink;
    obs::arm_flight_dump_on_contract_failure(*recorder, flags.flight_dump);
  }

  // Observability artifacts describe the sweep's own repetitions: each one
  // is rendered on the lane that ran it, so artifact rep k is repetition k.
  std::vector<std::string> metrics_text(config.repetitions);
  std::vector<std::string> trace_text(config.repetitions);
  const auto artifacts = [&](std::size_t rep, const FabricManager& fabric) {
    if (!flags.metrics_out.empty()) {
      obs::MetricsRegistry registry;
      fabric.export_metrics(registry);
      std::ostringstream out;
      registry.write_jsonl(out);
      metrics_text[rep] = out.str();
    }
    if (!flags.trace_out.empty()) {
      std::ostringstream out;
      tracer.write(out);
      trace_text[rep] = out.str();
      tracer.clear();
    }
  };

  const DegradationPoint point = run_degradation(tree, config, artifacts);
  std::cout << config.scheduler << " on " << to_string(pattern->second)
            << ", " << config.repetitions << " reps, horizon "
            << config.horizon << ", retry " << config.retry.spec() << ":\n";
  if (config.mtbf > 0.0) {
    std::cout << "  faults: mtbf " << config.mtbf << ", mttr "
              << config.resolved_mttr() << " ticks\n";
  } else {
    std::cout << "  faults: rate " << config.fault_rate << "\n";
  }
  std::cout << "  first-attempt  " << point.schedulability.ratio_string()
            << "\n"
            << "  open at end    " << point.open_ratio.ratio_string() << "\n"
            << "  ever granted   " << point.ever_granted.ratio_string()
            << "\n"
            << "  fail/repair    " << point.fail_events << " / "
            << point.repair_events << " events\n"
            << "  victims        " << point.victims << " revoked, "
            << point.recovered << " recovered ("
            << TextTable::pct(point.recovery_success_ratio()) << ")\n"
            << "  retries        " << point.retries << " scheduled, "
            << point.shed << " shed, " << point.permanent_rejects
            << " permanent rejects, " << point.abandoned << " abandoned\n";
  const auto print_latency = [](const char* label,
                                std::span<const double> lat) {
    std::cout << "  " << label << lat.size() << " samples";
    if (!lat.empty()) {
      std::cout << ", p50/p90/p99 " << TextTable::num(percentile(lat, 0.50), 1)
                << "/" << TextTable::num(percentile(lat, 0.90), 1) << "/"
                << TextTable::num(percentile(lat, 0.99), 1) << " ticks";
    }
    std::cout << "\n";
  };
  print_latency("recovery lat.  ", point.recovery_latency);
  print_latency("retry lat.     ", point.retry_latency);

  if (recorder) {
    obs::disarm_flight_dump_on_contract_failure();
    std::ofstream out(flags.flight_dump);
    if (!out) {
      std::cerr << "cannot open " << flags.flight_dump << "\n";
      return 1;
    }
    recorder->write_jsonl(out);
    std::cout << "  flight  -> " << flags.flight_dump << " ("
              << recorder->recorded() << " events, " << recorder->dropped()
              << " dropped)\n";
  }

  if (!flags.metrics_out.empty() || !flags.trace_out.empty()) {
    for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
      for (const auto& [base, text] :
           {std::pair{&flags.metrics_out, &metrics_text[rep]},
            std::pair{&flags.trace_out, &trace_text[rep]}}) {
        if (base->empty()) continue;
        const std::string path = rep_path(*base, rep);
        std::ofstream out(path);
        if (!out) {
          std::cerr << "cannot open " << path << "\n";
          return 1;
        }
        out << *text;
      }
    }
    const std::string last = "rep" + std::to_string(config.repetitions - 1);
    if (!flags.metrics_out.empty()) {
      std::cout << "  metrics -> " << rep_path(flags.metrics_out, 0) << " .. "
                << last << "\n";
    }
    if (!flags.trace_out.empty()) {
      std::cout << "  trace   -> " << rep_path(flags.trace_out, 0) << " .. "
                << last << "\n";
    }
  }
  return 0;
}

int cmd_sweep(int argc, char** argv, const ObsFlags& flags) {
  if (argc < 3) return usage();
  const std::string scheduler = argv[2];
  if (!make_scheduler(scheduler).ok()) {
    std::cerr << make_scheduler(scheduler).message() << "\n";
    return 1;
  }
  std::size_t reps = 100;
  if (argc > 3 && !read_reps(argv[3], reps)) return usage();
  TextTable table({"levels", "arity", "nodes", "mean", "min", "max",
                   "stddev"});
  struct Family {
    std::uint32_t levels;
    std::vector<std::uint32_t> arities;
  };
  const std::vector<Family> families{
      {2, {8, 16, 32, 48, 64}}, {3, {4, 6, 8, 12, 16}}, {4, {3, 4, 5, 6, 7}}};
  for (const Family& family : families) {
    for (const std::uint32_t w : family.arities) {
      const FatTree tree = FatTree::symmetric(family.levels, w);
      ExperimentConfig config;
      config.scheduler = scheduler;
      config.repetitions = reps;
      config.seed = 2006 + w;
      config.allow_residual = scheduler == "local-hold";
      config.threads = flags.threads;
      const ExperimentPoint point = run_experiment(tree, config);
      table.add_row({std::to_string(family.levels), std::to_string(w),
                     std::to_string(tree.node_count()),
                     TextTable::num(point.schedulability.mean, 4),
                     TextTable::num(point.schedulability.min, 4),
                     TextTable::num(point.schedulability.max, 4),
                     TextTable::num(point.schedulability.stddev, 4)});
    }
  }
  table.print_csv(std::cout);
  return 0;
}

/// Machine-readable soak summary ({"bench":"chaos_soak", ...}) — ftreport
/// renders it and exits 2 when the artifact records a violation.
int write_soak_json(const std::string& path, const FatTreeParams& tree,
                    const SoakConfig& config, const SoakReport& report) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }
  os << "{\"bench\":\"chaos_soak\",\"scheduler\":\""
     << json_escape(config.scheduler) << "\",\"levels\":" << tree.levels
     << ",\"m\":" << tree.child_arity << ",\"w\":" << tree.parent_arity
     << ",\"seed\":" << config.seed << ",\"ops\":" << config.ops
     << ",\"epoch\":" << config.epoch_ops
     << ",\"ok\":" << (report.ok ? "true" : "false") << ",\"violation\":\""
     << json_escape(report.violation)
     << "\",\"violation_op\":" << report.violation_op
     << ",\"reproducer_ops\":" << report.reproducer.size()
     << ",\"shrink_runs\":" << report.shrink_runs
     << ",\"executed\":" << report.executed
     << ",\"skipped\":" << report.skipped << ",\"epochs\":" << report.epochs
     << ",\"submitted\":" << report.stats.submitted
     << ",\"grants\":" << report.stats.grants
     << ",\"closed\":" << report.stats.closed
     << ",\"open_at_end\":" << report.open_at_end
     << ",\"fail_events\":" << report.stats.fail_events
     << ",\"repair_events\":" << report.stats.repair_events
     << ",\"victims\":" << report.stats.victims
     << ",\"recovered\":" << report.stats.recovered
     << ",\"retries\":" << report.stats.retries
     << ",\"shed\":" << report.stats.shed
     << ",\"permanent_rejects\":" << report.stats.permanent_rejects
     << ",\"abandoned\":" << report.stats.abandoned << ",\"env\":";
  obs::write_env_json(os, obs::collect_env());
  os << "}\n";
  std::cout << "  json    -> " << path << "\n";
  return 0;
}

void print_soak_report(const SoakReport& report) {
  std::cout << "  executed " << report.executed << " ops (" << report.skipped
            << " skipped), " << report.epochs << " invariant epochs\n";
  std::cout << "  traffic  " << report.stats.submitted << " submitted, "
            << report.stats.grants << " grants, " << report.stats.closed
            << " closed, " << report.open_at_end << " open at end\n";
  std::cout << "  churn    " << report.stats.fail_events << " fails, "
            << report.stats.repair_events << " repairs, "
            << report.stats.victims << " victims (" << report.stats.recovered
            << " recovered), " << report.stats.retries << " retries, "
            << report.stats.shed << " shed, " << report.stats.permanent_rejects
            << " permanent rejects, " << report.stats.abandoned
            << " abandoned\n";
}

int cmd_soak(int argc, char** argv, const ObsFlags& flags) {
  if (flags.soak_epoch == 0) {
    std::cerr << "--epoch must be >= 1\n";
    return 2;
  }

  // Replay mode: everything (tree, config, ops) comes from the script.
  if (!flags.soak_replay.empty()) {
    std::ifstream in(flags.soak_replay);
    if (!in) {
      std::cerr << "cannot open " << flags.soak_replay << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto script_or = parse_soak_script(buffer.str());
    if (!script_or.ok()) {
      std::cerr << flags.soak_replay << ": " << script_or.message() << "\n";
      return 2;
    }
    SoakScript script = std::move(script_or).value();
    auto tree_or = FatTree::create(script.tree);
    if (!tree_or.ok()) {
      std::cerr << flags.soak_replay << ": " << tree_or.message() << "\n";
      return 2;
    }
    if (!make_scheduler(script.config.scheduler).ok()) {
      std::cerr << flags.soak_replay << ": "
                << make_scheduler(script.config.scheduler).message() << "\n";
      return 2;
    }
    std::cout << "chaos replay: " << script.config.scheduler << " on FT("
              << script.tree.levels << "," << script.tree.child_arity
              << "," << script.tree.parent_arity << "), "
              << script.ops.size() << " ops from " << flags.soak_replay
              << "\n";
    ChaosSoak soak(tree_or.value(), script.config);
    const SoakReport report = soak.replay(script.ops);
    print_soak_report(report);
    if (report.ok) {
      std::cout << "PASS: reproducer no longer violates\n";
      return 0;
    }
    std::cout << "FAIL after " << report.violation_op << " executed ops: "
              << report.violation << "\n";
    return 1;
  }

  if (argc < 4) return usage();
  int tree_exit = 0;
  const std::optional<FatTree> tree_arg =
      tree_from_args(argv[2], argv[3], nullptr, /*colon_w=*/true, tree_exit);
  if (!tree_arg) return tree_exit;
  const FatTree& tree = *tree_arg;

  SoakConfig config;
  if (argc > 4) config.scheduler = argv[4];
  if (!make_scheduler(config.scheduler).ok()) {
    std::cerr << make_scheduler(config.scheduler).message() << "\n";
    return 1;
  }
  if (argc > 5 && !read_unsigned("seed", argv[5], config.seed)) {
    return usage();
  }
  config.ops = flags.soak_ops;
  config.epoch_ops = flags.soak_epoch;
  config.max_pending = flags.soak_max_pending;
  config.shrink = flags.soak_shrink;
  if (flags.retry_policy_set) {
    auto retry_or = parse_retry_policy(flags.retry_policy);
    if (!retry_or.ok()) {
      std::cerr << retry_or.message() << "\n";
      return 1;
    }
    config.retry = retry_or.value();
  }

  // Lifecycle flight recorder over the primary run, armed as the black box
  // for contract failures inside the fault stack.
  std::optional<obs::FlightRecorder> recorder;
  obs::Sink sink;
  if (!flags.flight_dump.empty()) {
    recorder.emplace(1);
    sink.flight = &*recorder;
    config.sink = &sink;
    obs::arm_flight_dump_on_contract_failure(*recorder, flags.flight_dump);
  }

  std::cout << "chaos soak: " << config.scheduler << " on FT("
            << tree.levels() << "," << tree.child_arity() << ","
            << tree.parent_arity() << "), " << config.ops
            << " ops, seed " << config.seed << ", epoch "
            << config.epoch_ops << ", retry " << config.retry.spec() << "\n";
  ChaosSoak soak(tree, config);
  const SoakReport report = soak.run();
  print_soak_report(report);

  if (recorder) {
    obs::disarm_flight_dump_on_contract_failure();
    std::ofstream out(flags.flight_dump);
    if (!out) {
      std::cerr << "cannot open " << flags.flight_dump << "\n";
      return 1;
    }
    recorder->write_jsonl(out);
    std::cout << "  flight  -> " << flags.flight_dump << " ("
              << recorder->recorded() << " events, " << recorder->dropped()
              << " dropped)\n";
  }

  if (!flags.soak_json.empty()) {
    const int rc =
        write_soak_json(flags.soak_json, tree.params(), config, report);
    if (rc != 0) return rc;
  }

  if (report.ok) {
    std::cout << "PASS: invariants clean at every epoch\n";
    return 0;
  }
  std::cout << "FAIL after " << report.violation_op << " executed ops: "
            << report.violation << "\n";
  if (!report.reproducer.empty()) {
    std::cout << "  shrunk to " << report.reproducer.size() << " ops in "
              << report.shrink_runs << " replays\n";
    std::ofstream out(flags.soak_out);
    if (!out) {
      std::cerr << "cannot open " << flags.soak_out << "\n";
      return 1;
    }
    out << write_soak_script(tree.params(), config, report.reproducer);
    std::cout << "  reproducer -> " << flags.soak_out
              << " (replay: ftsched soak --replay=" << flags.soak_out
              << ")\n";
  }
  return 1;
}

int cmd_hw(int argc, char** argv) {
  if (argc < 4) return usage();
  int tree_exit = 0;
  const std::optional<FatTree> tree_arg =
      tree_from_args(argv[2], argv[3], nullptr, /*colon_w=*/false, tree_exit);
  if (!tree_arg) return tree_exit;
  const FatTree& tree = *tree_arg;
  if (tree.levels() < 2 || tree.parent_arity() > 64) {
    std::cerr << "hardware model needs 2+ levels and w <= 64\n";
    return 1;
  }
  const TimingModel timing;
  const ResourceEstimate est = estimate_resources(tree);
  std::cout << "Centralized scheduler hardware for FT(" << tree.levels()
            << "," << tree.parent_arity() << "), " << tree.node_count()
            << " nodes:\n";
  std::cout << "  pipeline stages : " << est.pipeline_stages << "\n";
  std::cout << "  block cycle     : "
            << TextTable::num(timing.cycle_ns(tree.parent_arity()), 2)
            << " ns (Fmax "
            << TextTable::num(1000.0 / timing.cycle_ns(tree.parent_arity()),
                              0)
            << " MHz)\n";
  std::cout << "  single request  : "
            << TextTable::num(
                   timing.request_latency_ns(tree.levels(),
                                             tree.parent_arity()),
                   2)
            << " ns\n";
  std::cout << "  full batch      : "
            << TextTable::num(timing.batch_total_ns(tree.node_count(),
                                                    tree.levels(),
                                                    tree.parent_arity()) /
                                  1000.0,
                              3)
            << " us (" << tree.node_count() << " requests)\n";
  std::cout << "  memory          : " << est.memory_bits << " bits in "
            << est.m4k_blocks << " M4K blocks\n";
  std::cout << "  logic           : ~" << est.aluts << " ALUTs, "
            << est.registers << " registers\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Pull the observability flags out of argv first, so the positional
  // commands see a flag-free argument list.
  ObsFlags flags;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--probe") {
      flags.probe = true;
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      flags.metrics_out = arg.substr(14);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      flags.trace_out = arg.substr(12);
    } else if (arg.rfind("--telemetry-out=", 0) == 0) {
      flags.telemetry_out = arg.substr(16);
    } else if (arg.rfind("--threads=", 0) == 0) {
      std::uint64_t n = 0;
      if (!read_unsigned("--threads", arg.c_str() + 10, n)) return usage();
      flags.threads =
          n == 0 ? exec::hardware_threads() : static_cast<std::size_t>(n);
    } else if (arg.rfind("--fault-rate=", 0) == 0) {
      if (!read_non_negative("--fault-rate", arg.c_str() + 13,
                             flags.fault_rate)) {
        return usage();
      }
    } else if (arg.rfind("--fault-mtbf=", 0) == 0) {
      if (!read_non_negative("--fault-mtbf", arg.c_str() + 13,
                             flags.fault_mtbf)) {
        return usage();
      }
    } else if (arg.rfind("--fault-mttr=", 0) == 0) {
      if (!read_non_negative("--fault-mttr", arg.c_str() + 13,
                             flags.fault_mttr)) {
        return usage();
      }
    } else if (arg.rfind("--retry-policy=", 0) == 0) {
      flags.retry_policy = arg.substr(15);
      flags.retry_policy_set = true;
    } else if (arg.rfind("--ops=", 0) == 0) {
      if (!read_unsigned("--ops", arg.c_str() + 6, flags.soak_ops)) {
        return usage();
      }
    } else if (arg.rfind("--epoch=", 0) == 0) {
      if (!read_unsigned("--epoch", arg.c_str() + 8, flags.soak_epoch)) {
        return usage();
      }
    } else if (arg.rfind("--max-pending=", 0) == 0) {
      if (!read_unsigned("--max-pending", arg.c_str() + 14,
                         flags.soak_max_pending)) {
        return usage();
      }
    } else if (arg.rfind("--soak-out=", 0) == 0) {
      flags.soak_out = arg.substr(11);
    } else if (arg.rfind("--json=", 0) == 0) {
      flags.soak_json = arg.substr(7);
    } else if (arg.rfind("--replay=", 0) == 0) {
      flags.soak_replay = arg.substr(9);
    } else if (arg == "--no-shrink") {
      flags.soak_shrink = false;
    } else if (arg.rfind("--flight-dump=", 0) == 0) {
      flags.flight_dump = arg.substr(14);
    } else if (arg.rfind("--horizon=", 0) == 0) {
      std::uint64_t horizon = 0;
      if (!read_unsigned("--horizon", arg.c_str() + 10, horizon)) {
        return usage();
      }
      flags.horizon = static_cast<SimTime>(horizon);
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown option " << arg << "\n";
      return usage();
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (argc > max_argc(command)) {
    std::cerr << "too many arguments for '" << command << "'\n";
    return usage();
  }
  if (command == "info") return cmd_info(argc, argv);
  if (command == "dot") return cmd_dot(argc, argv);
  if (command == "schedule") return cmd_schedule(argc, argv, flags);
  if (command == "degrade") return cmd_degrade(argc, argv, flags);
  if (command == "sweep") return cmd_sweep(argc, argv, flags);
  if (command == "soak") return cmd_soak(argc, argv, flags);
  if (command == "hw") return cmd_hw(argc, argv);
  if (command == "schedulers") {
    for (const std::string& name : scheduler_names()) {
      std::cout << name << "\n";
    }
    return 0;
  }
  if (command == "patterns") {
    for (const auto& [name, _] : pattern_names()) std::cout << name << "\n";
    return 0;
  }
  return usage();
}
