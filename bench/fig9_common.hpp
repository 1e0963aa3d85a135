// Shared driver for the Figure-9 schedulability benches.
//
// Protocol, exactly as paper §5: 100 randomly generated communication
// permutations per test point; each permutation is scheduled by the
// Level-wise scheduler ("Global") and by the conventional adaptive scheduler
// with local information ("Local"); the bar is the average schedulability
// ratio, the whiskers the observed min and max.
//
// The paper describes the baseline as "each switch selects a routing path
// randomly from the available local ports" (§1), so "Local" here is the
// random-port local scheduler; the greedy (first-fit) variant is also
// printed for completeness since the paper mentions "greedy or random".
#pragma once

#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/env.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/stopwatch.hpp"
#include "stats/runner.hpp"
#include "util/table.hpp"

namespace ftsched::bench {

/// One scheduler's result at one tree size, with its wall time — the
/// machine-readable BENCH_*.json carries throughput alongside the ratios.
struct TimedPoint {
  ExperimentPoint point;
  double wall_ms = 0.0;

  double requests_per_sec() const {
    if (wall_ms <= 0.0) return 0.0;
    return static_cast<double>(point.total_requests) / (wall_ms / 1000.0);
  }
};

struct Fig9Row {
  TimedPoint global;
  TimedPoint local_random;
  TimedPoint local_greedy;
  std::uint32_t levels = 0;
  std::uint64_t nodes = 0;
  std::uint32_t arity = 0;
};

inline TimedPoint run_timed(const FatTree& tree, ExperimentConfig& config) {
  const obs::Stopwatch watch;
  TimedPoint timed;
  timed.point = run_experiment(tree, config);
  timed.wall_ms = watch.elapsed_ms();
  return timed;
}

inline Fig9Row run_point(std::uint32_t levels, std::uint32_t arity,
                         std::size_t reps, std::uint64_t seed,
                         std::size_t threads = 1) {
  const FatTree tree = FatTree::symmetric(levels, arity);
  Fig9Row row;
  row.levels = levels;
  row.nodes = tree.node_count();
  row.arity = arity;
  ExperimentConfig config;
  config.repetitions = reps;
  config.seed = seed;
  config.threads = threads;
  config.scheduler = "levelwise";
  row.global = run_timed(tree, config);
  config.scheduler = "local-random";
  row.local_random = run_timed(tree, config);
  config.scheduler = "local";
  row.local_greedy = run_timed(tree, config);
  return row;
}

inline void print_sweep(const std::string& title, std::uint32_t levels,
                        const std::vector<std::uint32_t>& arities,
                        std::size_t reps, bool csv = false,
                        std::vector<Fig9Row>* out = nullptr,
                        std::size_t threads = 1) {
  if (!csv) {
    std::cout << title << "\n";
    std::cout << "(avg [min, max] over " << reps
              << " random permutations per point)\n\n";
  }
  TextTable table(
      csv ? std::vector<std::string>{"nodes", "arity", "levels",
                                     "global_mean", "global_min",
                                     "global_max", "local_random_mean",
                                     "local_greedy_mean"}
          : std::vector<std::string>{"N (w^l)", "Global (level-wise)",
                                     "Local (random)", "Local (greedy)",
                                     "improvement"});
  for (std::uint32_t w : arities) {
    const Fig9Row row = run_point(levels, w, reps, /*seed=*/2006 + w, threads);
    const Summary& global = row.global.point.schedulability;
    const Summary& local_random = row.local_random.point.schedulability;
    const Summary& local_greedy = row.local_greedy.point.schedulability;
    if (csv) {
      table.add_row({std::to_string(row.nodes), std::to_string(w),
                     std::to_string(levels), TextTable::num(global.mean, 4),
                     TextTable::num(global.min, 4),
                     TextTable::num(global.max, 4),
                     TextTable::num(local_random.mean, 4),
                     TextTable::num(local_greedy.mean, 4)});
    } else {
      const double improvement =
          (global.mean - local_random.mean) / local_random.mean;
      table.add_row({std::to_string(row.nodes) + " (" + std::to_string(w) +
                         "^" + std::to_string(levels) + ")",
                     global.ratio_string(), local_random.ratio_string(),
                     local_greedy.ratio_string(),
                     "+" + TextTable::pct(improvement)});
    }
    if (out) out->push_back(row);
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout << "\n";
  }
}

inline void write_timed_point(std::ostream& os, const char* scheduler,
                              const TimedPoint& timed) {
  const Summary& s = timed.point.schedulability;
  os << '"' << scheduler << "\":{\"mean\":" << s.mean << ",\"min\":" << s.min
     << ",\"max\":" << s.max << ",\"stddev\":" << s.stddev
     << ",\"wall_ms\":" << timed.wall_ms
     << ",\"requests_per_sec\":" << timed.requests_per_sec() << '}';
}

/// One profiled scheduler run destined for a BENCH json's profile block.
/// Deque-stored: ProfileSession owns perf fds and is immovable.
struct ProfiledPoint {
  std::string label;
  obs::ProfileSession session;
};

/// The embedded `"profile"` block: same point-object shape as the profile
/// JSONL v1 `point` lines, plus the backend/env header fields inline.
inline void write_profile_block(std::ostream& os,
                                const std::deque<ProfiledPoint>& profiled) {
  const obs::PerfBackend backend =
      profiled.empty() ? obs::PerfBackend::kTimer
                       : profiled.front().session.backend();
  os << "\"profile\":{\"version\":1,\"backend\":\""
     << obs::to_string(backend) << "\",\"env\":";
  obs::write_env_json(os, obs::collect_env());
  os << ",\"points\":[";
  for (std::size_t i = 0; i < profiled.size(); ++i) {
    if (i) os << ',';
    os << "\n";
    profiled[i].session.write_point_json(os, profiled[i].label);
  }
  os << "\n]}";
}

/// BENCH_*.json: one self-contained JSON document per bench —
///   {"bench":..,"reps":..,"threads":..,"env":{..},"points":[{"levels":..,
///    "arity":..,"nodes":..,"schedulers":{"<name>":{"mean","min","max",
///    "stddev","wall_ms","requests_per_sec"},..}},..][,"profile":{..}]}
/// `threads` records the repetition fan-out the numbers were measured with;
/// the ratio fields are thread-count-invariant, the wall-clock fields are
/// not. `env` fingerprints the machine and build (obs::EnvInfo) so ftreport
/// can warn when a regression gate compares artifacts from different boxes.
/// See docs/OBSERVABILITY.md for the schema contract CI validates.
inline void write_bench_json(const std::string& path,
                             const std::string& bench, std::size_t reps,
                             const std::vector<Fig9Row>& rows,
                             std::size_t threads = 1,
                             const std::deque<ProfiledPoint>* profiled =
                                 nullptr) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot open " << path << "\n";
    return;
  }
  os << "{\"bench\":\"" << obs::json_escape(bench) << "\",\"reps\":" << reps
     << ",\"threads\":" << threads << ",\"env\":";
  obs::write_env_json(os, obs::collect_env());
  os << ",\"points\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Fig9Row& row = rows[i];
    if (i) os << ',';
    os << "\n{\"levels\":" << row.levels << ",\"arity\":" << row.arity
       << ",\"nodes\":" << row.nodes << ",\"schedulers\":{";
    write_timed_point(os, "levelwise", row.global);
    os << ',';
    write_timed_point(os, "local-random", row.local_random);
    os << ',';
    write_timed_point(os, "local", row.local_greedy);
    os << "}}";
  }
  os << "\n]";
  if (profiled != nullptr && !profiled->empty()) {
    os << ',';
    write_profile_block(os, *profiled);
  }
  os << "}\n";
  std::cout << "wrote " << path << "\n";
}

/// Shared argv handling for the sweep benches:
/// [reps] [--csv] [--json[=FILE]] [--profile] [--profile-backend=auto|timer]
/// [--threads=N] in any order. `--json` without a file writes
/// BENCH_<bench>.json in the working directory.
struct Fig9Args {
  std::size_t reps = 100;
  bool csv = false;
  bool json = false;
  std::string json_path;  // empty = default BENCH_<bench>.json
  /// --profile: re-run the levelwise sweep with the cost profiler attached
  /// and embed the per-level/per-phase attribution as a "profile" block in
  /// the bench JSON (requires --json; ignored without it).
  bool profile = false;
  /// --profile-backend=timer forces the wall-clock fallback backend.
  obs::PerfCounters::Request profile_request =
      obs::PerfCounters::Request::kAuto;
  /// Repetition fan-out width (--threads=N; 0 = all hardware threads).
  /// Ratios are bit-identical at any width — only wall_ms moves.
  std::size_t threads = 1;
};

inline Fig9Args parse_fig9_args(int argc, char** argv) {
  Fig9Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv") {
      args.csv = true;
    } else if (arg == "--json") {
      args.json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      args.json = true;
      args.json_path = arg.substr(7);
    } else if (arg == "--profile") {
      args.profile = true;
    } else if (arg == "--profile-backend=timer") {
      args.profile_request = obs::PerfCounters::Request::kTimer;
    } else if (arg == "--profile-backend=auto") {
      args.profile_request = obs::PerfCounters::Request::kAuto;
    } else if (arg.rfind("--threads=", 0) == 0) {
      const long n = std::atol(arg.c_str() + 10);
      args.threads = n <= 0 ? exec::hardware_threads()
                            : static_cast<std::size_t>(n);
    } else {
      args.reps = static_cast<std::size_t>(std::atoi(arg.c_str()));
    }
  }
  if (args.reps == 0) args.reps = 100;
  return args;
}

/// --profile support: re-runs the levelwise sweep — same grid, same seeds,
/// so the profile describes exactly the run the ratios came from — with a
/// ProfileSession attached per point.
inline std::deque<ProfiledPoint> profile_sweep(
    std::uint32_t levels, const std::vector<std::uint32_t>& arities,
    std::size_t reps, std::size_t threads,
    obs::PerfCounters::Request request) {
  std::deque<ProfiledPoint> profiled;
  for (const std::uint32_t w : arities) {
    const FatTree tree = FatTree::symmetric(levels, w);
    ExperimentConfig config;
    config.repetitions = reps;
    config.seed = 2006 + w;
    config.threads = threads;
    config.scheduler = "levelwise";
    ProfiledPoint& pp = profiled.emplace_back();
    pp.label = "levelwise/l" + std::to_string(levels) + "w" +
               std::to_string(w);
    pp.session.set_request(request);
    config.profiler = &pp.session;
    run_experiment(tree, config);
  }
  return profiled;
}

/// Runs a standard single-family sweep bench end to end (fig9a/b/c share
/// exactly this shape): print the table, optionally drop BENCH_<name>.json.
inline int run_sweep_bench(const std::string& bench, const std::string& title,
                           std::uint32_t levels,
                           const std::vector<std::uint32_t>& arities,
                           const Fig9Args& args) {
  std::vector<Fig9Row> rows;
  print_sweep(title, levels, arities, args.reps, args.csv, &rows,
              args.threads);
  if (args.json) {
    std::deque<ProfiledPoint> profiled;
    if (args.profile) {
      profiled = profile_sweep(levels, arities, args.reps, args.threads,
                               args.profile_request);
    }
    const std::string path =
        args.json_path.empty() ? "BENCH_" + bench + ".json" : args.json_path;
    write_bench_json(path, bench, args.reps, rows, args.threads,
                     profiled.empty() ? nullptr : &profiled);
  }
  return 0;
}

}  // namespace ftsched::bench
