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

#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "exec/thread_pool.hpp"
#include "obs/env.hpp"
#include "obs/stopwatch.hpp"
#include "stats/runner.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"
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

/// BENCH_*.json: one self-contained JSON document per bench —
///   {"bench":..,"reps":..,"threads":..,"env":{..},"points":[{"levels":..,
///    "arity":..,"nodes":..,"schedulers":{"<name>":{"mean","min","max",
///    "stddev","wall_ms","requests_per_sec"},..}},..]}
/// `threads` records the repetition fan-out the numbers were measured with;
/// the ratio fields are thread-count-invariant, the wall-clock fields are
/// not. `env` fingerprints the machine and build (obs::EnvInfo) so ftreport
/// can warn when a regression gate compares artifacts from different boxes.
/// See docs/OBSERVABILITY.md for the schema contract CI validates.
inline void write_bench_json(const std::string& path,
                             const std::string& bench, std::size_t reps,
                             const std::vector<Fig9Row>& rows,
                             std::size_t threads = 1) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot open " << path << "\n";
    return;
  }
  os << "{\"bench\":\"" << json_escape(bench) << "\",\"reps\":" << reps
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
  os << "\n]}\n";
  std::cout << "wrote " << path << "\n";
}

/// Shared argv handling for the sweep benches:
/// [reps] [--csv] [--json[=FILE]] [--threads=N] in any order. `--json`
/// without a file writes BENCH_<bench>.json in the working directory.
struct Fig9Args {
  std::size_t reps = 100;
  bool csv = false;
  bool json = false;
  std::string json_path;  // empty = default BENCH_<bench>.json
  /// Repetition fan-out width (--threads=N; 0 = all hardware threads).
  /// Ratios are bit-identical at any width — only wall_ms moves.
  std::size_t threads = 1;
};

/// Reads --threads=N: a plain unsigned integer, 0 meaning all hardware
/// threads.
inline bool read_threads_arg(const std::string& text, std::size_t& threads) {
  const std::optional<std::uint64_t> n = parse_unsigned(text);
  if (!n) {
    std::cerr << "bad --threads '" << text
              << "' (expected an unsigned integer)\n";
    return false;
  }
  threads = *n == 0 ? exec::hardware_threads() : static_cast<std::size_t>(*n);
  return true;
}

/// Nullopt (after a message on stderr) on a usage error; callers exit 2.
inline std::optional<Fig9Args> parse_fig9_args(int argc, char** argv) {
  Fig9Args args;
  bool reps_seen = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv") {
      args.csv = true;
    } else if (arg == "--json") {
      args.json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      args.json = true;
      args.json_path = arg.substr(7);
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!read_threads_arg(arg.substr(10), args.threads)) return std::nullopt;
    } else if (!read_reps_arg(arg, reps_seen, args.reps)) {
      return std::nullopt;
    }
  }
  return args;
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
    const std::string path =
        args.json_path.empty() ? "BENCH_" + bench + ".json" : args.json_path;
    write_bench_json(path, bench, args.reps, rows, args.threads);
  }
  return 0;
}

}  // namespace ftsched::bench
