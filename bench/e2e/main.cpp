// ftsched_e2e — the repository's end-to-end benchmark.
//
//   ftsched_e2e --workload fig9|admit|churn|recovery [--seed N] [--seconds S]
//               [--trace 0|1] [--smoke] [--expect NAME=VALUE]...
//
// One workload per process, one thread, closed loop. The last line on stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones of a traced re-run, and every kept span is written to
// TRACE_e2e_<workload>.jsonl in the working directory. --expect pins one of
// the deterministic counts (printed as "# count NAME VALUE"); a mismatch,
// like any other failed correctness gate, makes the exit code non-zero.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "hw/timing_model.hpp"
#include "span_trace.hpp"
#include "stats/summary.hpp"
#include "workloads.hpp"

namespace {

using ftsched::e2e::RunConfig;
using ftsched::e2e::RunResult;
using ftsched::e2e::SpanTrace;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (selftest.py smoke compares the two).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"throughput_rps", "1/s"},
    {"latency_p50_us", "us"},  {"latency_p99_us", "us"},
    {"schedulability", "ratio"}, {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"workload.generate.ns_per_req", "ns"},
    {"linkstate.reset.ns_per_batch", "ns"},
    {"core.schedule.levelwise.ns_per_req", "ns"},
    {"core.schedule.local-random.ns_per_req", "ns"},
    {"core.schedule.share", "ratio"},
    {"core.schedule.reject_level0", "count"},
    {"core.schedule.reject_level1", "count"},
    {"core.schedule.vs_hw", "ratio"},
    {"hw.model.ns_per_req", "ns"},
    {"core.verify.ns_per_req", "ns"},
    {"core.verify.channels_checked", "count"},
    {"core.verify.share", "ratio"},
    {"stats.summary.us", "us"},
    {"core.conn.open_ns_per_req", "ns"},
    {"core.conn.close_ns_per_op", "ns"},
    {"core.conn.leaf_busy", "count"},
    {"linkstate.util.level0", "ratio"},
    {"linkstate.util.level1", "ratio"},
    {"fault.fill.us_p50", "us"},
    {"fault.retries_per_episode", "count"},
    {"fault.retry.useful_share", "ratio"},
    {"des.events_per_episode", "count"},
    {"fault.fail_cable.us_per_cable", "us"},
    {"des.drain.us_p50", "us"},
    {"fault.victims_per_burst", "count"},
    {"fault.recovery_ticks_p50", "ticks"},
    {"fault.check_invariants.us", "us"},
    {"bench.loop.self_share", "ratio"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_share", "ratio"},
};

// Spans are 32 bytes; a traced run keeps at most this many for the dump.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 17;

int usage(const char* why) {
  std::cerr << "ftsched_e2e: " << why << "\n"
            << "usage: ftsched_e2e --workload fig9|admit|churn|recovery "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--expect NAME=VALUE]...\n";
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && text[0] != '-';
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// would do, except that Linux carries it across exec, so a run started
/// from a larger parent (run.py) would report the parent's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

double share(std::uint64_t ns, double wall_s) {
  return wall_s > 0.0 ? static_cast<double>(ns) * 1e-9 / wall_s : 0.0;
}

/// Span-derived per-layer values every workload shares.
void add_span_layers(const SpanTrace& trace, const RunResult& result,
                     std::map<std::string, double>& layer) {
  std::uint64_t schedule_ns = 0;
  std::uint64_t covered_ns = 0;
  const auto& names = trace.names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const ftsched::e2e::SpanTotals& totals = trace.totals()[i];
    if (names[i].rfind("core.schedule.", 0) == 0) {
      schedule_ns += totals.total_ns;
    }
    if (names[i] != "bench.loop") covered_ns += totals.self_ns;
  }
  const double wall = result.traced_loop_s;
  layer["core.schedule.share"] = share(schedule_ns, wall);
  layer["core.verify.share"] =
      share(trace.totals("core.verify").total_ns, wall);
  layer["bench.loop.self_share"] =
      share(trace.totals("bench.loop").self_ns, wall);
  layer["trace.coverage"] = share(covered_ns, wall);
  const double untraced_round =
      result.loop_s / static_cast<double>(result.rounds);
  const double traced_round =
      result.traced_loop_s / static_cast<double>(result.traced_rounds);
  layer["trace.overhead_share"] = traced_round / untraced_round - 1.0;

  // The paper's pipeline (simulated time, Table 1): one FT(3,16) batch of
  // 4096 requests through the hardware scheduler.
  const double hw_ns =
      ftsched::TimingModel{}.batch_total_ns(4096, 3, 16) / 4096.0;
  layer["hw.model.ns_per_req"] = hw_ns;
  layer["core.schedule.vs_hw"] =
      layer["core.schedule.levelwise.ns_per_req"] / hw_ns;
}

void print_layer_table(const SpanTrace& trace, double wall_s) {
  std::printf("# %-28s %10s %12s %12s %8s\n", "span", "count", "total_ms",
              "self_ms", "self%");
  const auto& names = trace.names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const ftsched::e2e::SpanTotals& t = trace.totals()[i];
    std::printf("# %-28s %10llu %12.3f %12.3f %7.2f%%\n", names[i].c_str(),
                static_cast<unsigned long long>(t.count),
                static_cast<double>(t.total_ns) * 1e-6,
                static_cast<double>(t.self_ns) * 1e-6,
                100.0 * share(t.self_ns, wall_s));
  }
  std::printf("# spans kept %llu, dropped from the dump %llu\n",
              static_cast<unsigned long long>(trace.kept()),
              static_cast<unsigned long long>(trace.dropped()));
}

void print_metric(bool& first, const char* name, double value,
                  const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              first ? "" : ", ", name, value, unit);
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool traced = false;
  std::string workload;
  std::vector<std::pair<std::string, std::uint64_t>> expects;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    const std::string value = has_value ? argv[i + 1] : "";
    if (arg == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (!has_value) return usage(("missing value for " + arg).c_str());
    ++i;
    std::uint64_t number = 0;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, number)) return usage("bad --seed");
      config.seed = number;
    } else if (arg == "--seconds") {
      char* end = nullptr;
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(config.seconds >= 0.0)) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      traced = value == "1";
    } else if (arg == "--expect") {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos ||
          !parse_u64(value.substr(eq + 1), number)) {
        return usage("--expect takes NAME=VALUE");
      }
      expects.emplace_back(value.substr(0, eq), number);
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }

  RunResult (*run)(const RunConfig&, SpanTrace*) = nullptr;
  if (workload == "fig9") run = ftsched::e2e::run_fig9;
  if (workload == "admit") run = ftsched::e2e::run_admit;
  if (workload == "churn") run = ftsched::e2e::run_churn;
  if (workload == "recovery") run = ftsched::e2e::run_recovery;
  if (run == nullptr) return usage("unknown or missing --workload");

  SpanTrace trace(traced ? kTraceCapacity : 0);
  const RunResult result = run(config, traced ? &trace : nullptr);

  std::string failure = result.failure;
  if (failure.empty() && result.failed != 0) {
    failure =
        std::to_string(result.failed) + " library calls returned an error";
  }
  for (const auto& [name, value] : result.counts) {
    std::printf("# count %s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  for (const auto& [name, expected] : expects) {
    const auto it = result.counts.find(name);
    if (it == result.counts.end()) {
      if (failure.empty()) failure = "no count named " + name;
    } else if (it->second != expected && failure.empty()) {
      failure = "count " + name + " is " + std::to_string(it->second) +
                ", expected " + std::to_string(expected);
    }
  }
  if (!failure.empty()) {
    std::cerr << "ftsched_e2e: correctness gate failed: " << failure << "\n";
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {}}\n",
                static_cast<unsigned long long>(result.decided),
                static_cast<unsigned long long>(result.failed));
    return 1;
  }

  std::map<std::string, double> values;
  if (traced) {
    values = result.layer;
    add_span_layers(trace, result, values);
    print_layer_table(trace, result.traced_loop_s);
    const std::string path = "TRACE_e2e_" + workload + ".jsonl";
    if (!trace.write_jsonl(path)) {
      std::cerr << "ftsched_e2e: cannot write " << path << "\n";
      return 1;
    }
  } else {
    // Medians over rounds, of values already at reference host speed. p99
    // is the median round p50 times the tail ratio (p99 of latency / its
    // round's p50) of the calmest tenth of windows: host interruptions of a
    // fraction of a call come and go within a run and would otherwise set
    // the tail, while a tail of the code's own shows in every window.
    values["setup_s"] =
        *std::min_element(result.setup_s.begin(), result.setup_s.end());
    values["throughput_rps"] = ftsched::percentile(result.round_rate, 0.5);
    values["latency_p50_us"] = ftsched::percentile(result.round_p50_us, 0.5);
    values["latency_p99_us"] = values["latency_p50_us"] *
                               ftsched::percentile(result.window_tail, 0.1);
    values["schedulability"] = static_cast<double>(result.granted) /
                               static_cast<double>(result.asked);
    values["peak_rss_mb"] = peak_rss_mb();
  }

  std::printf("# workload %s seed %llu: %llu rounds in %.3f s, %llu unit "
              "calls timed, p99 from %zu windows of %llu steady rounds, %zu "
              "set-up bursts, %llu rounds traced\n",
              workload.c_str(), static_cast<unsigned long long>(config.seed),
              static_cast<unsigned long long>(result.rounds), result.loop_s,
              static_cast<unsigned long long>(result.samples),
              result.window_tail.size(),
              static_cast<unsigned long long>(result.steady_rounds),
              result.setup_s.size(),
              static_cast<unsigned long long>(result.traced_rounds));
  std::printf("# set-up burst medians (s):");
  for (const double s : result.setup_s) std::printf(" %.6g", s);
  std::printf("\n");
  std::vector<double> measured_rate;
  std::vector<double> measured_p50_us;
  for (std::size_t r = 0; r < result.round_slowdown.size(); ++r) {
    measured_rate.push_back(result.round_rate[r] / result.round_slowdown[r]);
    measured_p50_us.push_back(result.round_p50_us[r] *
                              result.round_slowdown[r]);
  }
  std::printf("# host slowdown: median %.4g, quartiles %.4g-%.4g; as "
              "measured: median round %.6g requests/s, p50 %.6g us\n",
              ftsched::percentile(result.round_slowdown, 0.5),
              ftsched::percentile(result.round_slowdown, 0.25),
              ftsched::percentile(result.round_slowdown, 0.75),
              ftsched::percentile(measured_rate, 0.5),
              ftsched::percentile(measured_p50_us, 0.5));
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(result.decided),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  if (traced) {
    for (const MetricSpec& m : kPerLayer) {
      const auto it = values.find(m.name);
      print_metric(first, m.name, it == values.end() ? 0.0 : it->second,
                   m.unit);
    }
  } else {
    for (const MetricSpec& m : kEndToEnd) {
      print_metric(first, m.name, values[m.name], m.unit);
    }
  }
  std::printf("}}\n");
  return 0;
}
