// Graceful-degradation sweep: schedulability and recovery under dynamic
// cable faults, the robustness counterpart of the Figure-9 benches.
//
// Each point runs the degradation engine (FabricManager + retry/backoff
// over the DES kernel) at one fault intensity: the expected fraction of
// cables that fail at least once within the horizon. Rate 0 uses the same
// per-repetition seeds as the fig9 benches (seed 2006 + arity), so its
// schedulability summary is bit-identical to the corresponding fig9 point —
// the regression anchor CI pins via ftreport.
//
// Usage: fig_degradation [reps] [--csv] [--json[=FILE]] [--threads=N]
//                        [--retry=SPEC] [--horizon=T] [--rates=R1,R2,...]
//                        [--schedulers=A,B,...] [--flight=FILE]
//
// --schedulers sweeps several registry schedulers per (topology, rate)
// point — the fault-aware policy comparison (levelwise vs
// levelwise-balanced) rides on this. Each JSON point carries its
// "scheduler" name plus the residual-fabric load-quality summaries
// (imbalance_max_over_mean / imbalance_cov / imbalance_hotspot) that the
// ftreport degradation-quality gate compares across policies.
//
// --flight=FILE attaches the lifecycle flight recorder to every point (one
// ring per worker thread) and writes the combined dump; request ids carry a
// per-point namespace on top of the per-repetition one, so one file holds
// the whole sweep's ledger. The hook is also armed as the crash black box.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "fault/degradation.hpp"
#include "fig9_common.hpp"
#include "obs/env.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/stopwatch.hpp"
#include "stats/summary.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace ftsched::bench {
namespace {

struct TreeSpec {
  std::uint32_t levels;
  std::uint32_t arity;
};

struct Args {
  std::size_t reps = 100;
  bool csv = false;
  bool json = false;
  std::string json_path;
  std::size_t threads = 1;
  std::string retry = "backoff:1:8";
  SimTime horizon = 1000;
  std::vector<double> rates = {0.0, 0.1, 0.25, 0.5, 0.75};
  std::vector<std::string> schedulers = {"levelwise"};
  std::string flight_path;
};

/// The non-empty items of a comma-separated list.
std::vector<std::string> split_list(const std::string& spec) {
  std::vector<std::string> items;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!item.empty()) items.push_back(item);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return items;
}

/// Nullopt (after a message on stderr) on a usage error; main exits 2.
std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
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
    } else if (arg.rfind("--retry=", 0) == 0) {
      args.retry = arg.substr(8);
    } else if (arg.rfind("--horizon=", 0) == 0) {
      const std::optional<std::uint64_t> horizon =
          parse_unsigned(arg.substr(10));
      if (!horizon) {
        std::cerr << "bad --horizon '" << arg.substr(10)
                  << "' (expected an unsigned integer)\n";
        return std::nullopt;
      }
      args.horizon = static_cast<SimTime>(*horizon);
    } else if (arg.rfind("--rates=", 0) == 0) {
      args.rates.clear();
      for (const std::string& item : split_list(arg.substr(8))) {
        const std::optional<double> rate = parse_non_negative(item);
        if (!rate) {
          std::cerr << "bad --rates item '" << item
                    << "' (expected a non-negative number)\n";
          return std::nullopt;
        }
        args.rates.push_back(*rate);
      }
    } else if (arg.rfind("--schedulers=", 0) == 0) {
      args.schedulers = split_list(arg.substr(13));
    } else if (arg.rfind("--flight=", 0) == 0) {
      args.flight_path = arg.substr(9);
    } else if (!read_reps_arg(arg, reps_seen, args.reps)) {
      return std::nullopt;
    }
  }
  if (args.rates.empty()) args.rates = {0.0};
  if (args.schedulers.empty()) args.schedulers = {"levelwise"};
  return args;
}

struct DegradationRow {
  TreeSpec spec;
  std::uint64_t nodes = 0;
  double fault_rate = 0.0;
  std::string scheduler;
  DegradationPoint point;
  double wall_ms = 0.0;
};

void write_summary(std::ostream& os, const char* name, const Summary& s) {
  os << '"' << name << "\":{\"mean\":" << s.mean << ",\"min\":" << s.min
     << ",\"max\":" << s.max << ",\"stddev\":" << s.stddev << '}';
}

void write_latency(std::ostream& os, const char* name,
                   const std::vector<double>& samples) {
  os << '"' << name << "\":{\"count\":" << samples.size();
  if (!samples.empty()) {
    os << ",\"p50\":" << percentile(samples, 0.50)
       << ",\"p90\":" << percentile(samples, 0.90)
       << ",\"p99\":" << percentile(samples, 0.99);
  }
  os << '}';
}

/// BENCH_degradation.json:
///   {"bench":"degradation","reps":..,"threads":..,"horizon":..,
///    "retry":"<spec>","env":{..},"points":[{"levels","arity","nodes",
///    "fault_rate","scheduler",
///    "schedulability"/"open_ratio"/"ever_granted":{mean,min,max,stddev},
///    "imbalance_max_over_mean"/"imbalance_cov"/"imbalance_hotspot":{..},
///    counters..., "recovery_success_ratio",
///    "recovery_latency"/"retry_latency":{count[,p50,p90,p99]},
///    "wall_ms"},..]}
/// Ratio and counter fields are thread-count-invariant; wall_ms is not.
/// `env` fingerprints machine and build so ftreport can warn on
/// cross-machine comparisons.
void write_json(const std::string& path, const Args& args,
                const std::vector<DegradationRow>& rows) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot open " << path << "\n";
    return;
  }
  os << "{\"bench\":\"degradation\",\"reps\":" << args.reps
     << ",\"threads\":" << args.threads << ",\"horizon\":" << args.horizon
     << ",\"retry\":\"" << json_escape(args.retry) << "\",\"env\":";
  obs::write_env_json(os, obs::collect_env());
  os << ",\"points\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const DegradationRow& row = rows[i];
    const DegradationPoint& p = row.point;
    if (i) os << ',';
    os << "\n{\"levels\":" << row.spec.levels << ",\"arity\":" << row.spec.arity
       << ",\"nodes\":" << row.nodes << ",\"fault_rate\":" << row.fault_rate
       << ",\"scheduler\":\"" << json_escape(row.scheduler) << "\",";
    write_summary(os, "schedulability", p.schedulability);
    os << ',';
    write_summary(os, "open_ratio", p.open_ratio);
    os << ',';
    write_summary(os, "ever_granted", p.ever_granted);
    os << ',';
    write_summary(os, "imbalance_max_over_mean", p.imbalance_max_over_mean);
    os << ',';
    write_summary(os, "imbalance_cov", p.imbalance_cov);
    os << ',';
    write_summary(os, "imbalance_hotspot", p.imbalance_hotspot);
    os << ",\"total_requests\":" << p.total_requests
       << ",\"fail_events\":" << p.fail_events
       << ",\"repair_events\":" << p.repair_events
       << ",\"victims\":" << p.victims << ",\"recovered\":" << p.recovered
       << ",\"retries\":" << p.retries << ",\"shed\":" << p.shed
       << ",\"permanent_rejects\":" << p.permanent_rejects
       << ",\"abandoned\":" << p.abandoned
       << ",\"recovery_success_ratio\":" << p.recovery_success_ratio() << ',';
    write_latency(os, "recovery_latency", p.recovery_latency);
    os << ',';
    write_latency(os, "retry_latency", p.retry_latency);
    os << ",\"wall_ms\":" << row.wall_ms << '}';
  }
  os << "\n]}\n";
  std::cout << "wrote " << path << "\n";
}

int run(const Args& args) {
  const auto retry = parse_retry_policy(args.retry);
  if (!retry.ok()) {
    std::cerr << "bad --retry: " << retry.message() << "\n";
    return 1;
  }
  // The fig9a 256-node and fig9b 512-node families; rate-0 rows reproduce
  // those benches' levelwise summaries bit for bit (same seed derivation).
  const std::vector<TreeSpec> specs = {{2, 16}, {3, 8}};

  if (!args.csv) {
    std::cout << "Graceful degradation under dynamic cable faults\n";
    std::cout << "(";
    for (std::size_t i = 0; i < args.schedulers.size(); ++i) {
      std::cout << (i ? ", " : "") << args.schedulers[i];
    }
    std::cout << "; retry " << args.retry << ", horizon " << args.horizon
              << ", " << args.reps << " random permutations per point)\n\n";
  }
  TextTable table(
      args.csv
          ? std::vector<std::string>{"nodes", "arity", "levels", "scheduler",
                                     "fault_rate", "sched_mean", "open_mean",
                                     "ever_mean", "recovery_ratio",
                                     "imbalance_mom", "hotspot", "victims",
                                     "recovered"}
          : std::vector<std::string>{"N", "scheduler", "fault rate",
                                     "first-attempt", "open at horizon",
                                     "ever granted", "imbalance", "recovery"});

  // One recorder for the whole sweep: rings sized to the worker fan-out,
  // request ids namespaced per point so the ledgers never collide.
  std::optional<obs::FlightRecorder> recorder;
  if (!args.flight_path.empty()) {
    const std::size_t rings =
        std::max<std::size_t>(1, std::min(args.threads, args.reps));
    recorder.emplace(rings);
    obs::arm_flight_dump_on_contract_failure(*recorder, args.flight_path);
  }

  std::vector<DegradationRow> rows;
  std::uint64_t point_counter = 0;
  for (const TreeSpec& spec : specs) {
    const FatTree tree = FatTree::symmetric(spec.levels, spec.arity);
    for (double rate : args.rates) {
      for (const std::string& scheduler : args.schedulers) {
        DegradationConfig config;
        config.scheduler = scheduler;
        config.repetitions = args.reps;
        config.seed = 2006 + spec.arity;  // the fig9 seed for this family
        config.threads = args.threads;
        config.fault_rate = rate;
        config.horizon = args.horizon;
        config.retry = retry.value();
        obs::Sink sink;
        if (recorder) {
          sink.flight = &*recorder;
          sink.id_base = (++point_counter) << 44U;
          config.sink = &sink;
        }

        const obs::Stopwatch watch;
        DegradationRow row;
        row.spec = spec;
        row.nodes = tree.node_count();
        row.fault_rate = rate;
        row.scheduler = scheduler;
        row.point = run_degradation(tree, config);
        row.wall_ms = watch.elapsed_ms();

        const DegradationPoint& p = row.point;
        if (args.csv) {
          table.add_row({std::to_string(row.nodes), std::to_string(spec.arity),
                         std::to_string(spec.levels), scheduler,
                         TextTable::num(rate, 2),
                         TextTable::num(p.schedulability.mean, 4),
                         TextTable::num(p.open_ratio.mean, 4),
                         TextTable::num(p.ever_granted.mean, 4),
                         TextTable::num(p.recovery_success_ratio(), 4),
                         TextTable::num(p.imbalance_max_over_mean.mean, 4),
                         TextTable::num(p.imbalance_hotspot.mean, 4),
                         std::to_string(p.victims),
                         std::to_string(p.recovered)});
        } else {
          table.add_row(
              {std::to_string(row.nodes) + " (" + std::to_string(spec.arity) +
                   "^" + std::to_string(spec.levels) + ")",
               scheduler, TextTable::num(rate, 2),
               p.schedulability.ratio_string(), p.open_ratio.ratio_string(),
               p.ever_granted.ratio_string(),
               TextTable::num(p.imbalance_max_over_mean.mean, 3) + "x/" +
                   TextTable::num(p.imbalance_hotspot.mean, 3) + "x",
               TextTable::pct(p.recovery_success_ratio()) + " of " +
                   std::to_string(p.victims)});
        }
        rows.push_back(std::move(row));
      }
    }
  }
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout << "\n";
  }
  if (args.json) {
    const std::string path =
        args.json_path.empty() ? "BENCH_degradation.json" : args.json_path;
    write_json(path, args, rows);
  }
  if (recorder) {
    obs::disarm_flight_dump_on_contract_failure();
    std::ofstream os(args.flight_path);
    if (!os) {
      std::cerr << "cannot open " << args.flight_path << "\n";
      return 1;
    }
    recorder->write_jsonl(os);
    std::cout << "wrote " << args.flight_path << " ("
              << recorder->recorded() << " events, " << recorder->dropped()
              << " dropped)\n";
  }
  return 0;
}

}  // namespace
}  // namespace ftsched::bench

int main(int argc, char** argv) {
  const auto args = ftsched::bench::parse_args(argc, argv);
  return args ? ftsched::bench::run(*args) : 2;
}
