// Trace workflow utility and living documentation for the observability API:
// generate a workload trace to a file, or replay a trace through a chosen
// scheduler with a SchedulerProbe and TraceWriter attached.
//
//   ./trace_scheduler generate <levels> <arity> <pattern> <seed> > trace.txt
//   ./trace_scheduler run <levels> <arity> <scheduler>
//       [--metrics-out=FILE] [--trace-out=FILE] < trace.txt
//
// The run mode prints the probe's JSON report (per-level rejections, reject
// reasons, AND-popcount and port-pick histograms) instead of per-request
// lines; --metrics-out dumps the same data as JSONL metrics and --trace-out
// writes a Chrome trace-event file loadable in Perfetto / chrome://tracing.
//
// Patterns: random, reversal, rotation, transpose, complement, shift,
// neighbor, hotspot. Schedulers: any registry name (see --help).
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "core/registry.hpp"
#include "core/verifier.hpp"
#include "obs/metrics.hpp"
#include "obs/sched_probe.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "util/parse.hpp"
#include "workload/patterns.hpp"
#include "workload/trace.hpp"

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
  std::cerr
      << "usage:\n"
      << "  trace_scheduler generate <levels> <arity> <pattern> <seed>\n"
      << "  trace_scheduler run <levels> <arity> <scheduler>"
      << " [--metrics-out=FILE] [--trace-out=FILE]\n"
      << "patterns:";
  for (const auto& [name, _] : pattern_names()) std::cerr << " " << name;
  std::cerr << "\nschedulers:";
  for (const std::string& name : scheduler_names()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

/// The tree of two 32-bit dimensions; nullopt (a usage error) when either
/// is not a plain unsigned integer.
std::optional<Result<FatTree>> parse_tree(const char* levels,
                                          const char* arity) {
  const std::optional<std::uint64_t> l = parse_unsigned(levels);
  const std::optional<std::uint64_t> a = parse_unsigned(arity);
  if (!l || !a || *l > UINT32_MAX || *a > UINT32_MAX) return std::nullopt;
  return FatTree::create(FatTreeParams::symmetric(
      static_cast<std::uint32_t>(*l), static_cast<std::uint32_t>(*a)));
}

bool write_file(const std::string& path,
                const std::function<void(std::ostream&)>& body) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  body(out);
  std::cerr << "wrote " << path << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];

  if (mode == "generate" && argc == 6) {
    const auto tree_or = parse_tree(argv[2], argv[3]);
    const std::optional<std::uint64_t> seed = parse_unsigned(argv[5]);
    if (!tree_or || !seed) return usage();
    if (!tree_or->ok()) {
      std::cerr << tree_or->message() << "\n";
      return 1;
    }
    const auto it = pattern_names().find(argv[4]);
    if (it == pattern_names().end()) return usage();
    Xoshiro256ss rng(*seed);
    Trace trace;
    trace.node_count = tree_or->value().node_count();
    trace.requests = generate_pattern(tree_or->value(), it->second, rng);
    write_trace(std::cout, trace);
    return 0;
  }

  if (mode == "run" && argc >= 5) {
    // Optional obs flags come after the positional args.
    std::string metrics_out;
    std::string trace_out;
    for (int i = 5; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--metrics-out=", 0) == 0) {
        metrics_out = arg.substr(14);
      } else if (arg.rfind("--trace-out=", 0) == 0) {
        trace_out = arg.substr(12);
      } else {
        return usage();
      }
    }
    const auto tree_or = parse_tree(argv[2], argv[3]);
    if (!tree_or) return usage();
    if (!tree_or->ok()) {
      std::cerr << tree_or->message() << "\n";
      return 1;
    }
    const FatTree& tree = tree_or->value();
    auto scheduler_or = make_scheduler(argv[4]);
    if (!scheduler_or.ok()) {
      std::cerr << scheduler_or.message() << "\n";
      return 1;
    }
    auto trace_or = read_trace(std::cin);
    if (!trace_or.ok()) {
      std::cerr << trace_or.message() << "\n";
      return 1;
    }
    if (trace_or.value().node_count != tree.node_count()) {
      std::cerr << "trace is for " << trace_or.value().node_count
                << " nodes, tree has " << tree.node_count() << "\n";
      return 1;
    }

    // The whole observability API in four steps: attach a sink holding a
    // probe and a trace writer to the scheduler, run, then export.
    obs::SchedulerProbe probe;
    obs::TraceWriter tracer;
    obs::Sink sink{.probe = &probe, .trace = &tracer};
    scheduler_or.value()->set_sink(&sink);

    LinkState state(tree);
    ScheduleResult result;
    {
      // User code can add its own spans around scheduler calls; they land in
      // the same trace as the scheduler's own batch spans.
      obs::ScopedSpan span(&tracer, "trace_scheduler.run", "example");
      result = scheduler_or.value()->schedule(
          tree, trace_or.value().requests, state);
    }
    const Status verified =
        verify_schedule(tree, trace_or.value().requests, result, &state);
    if (!verified.ok()) {
      std::cerr << "verification failed: " << verified.message() << "\n";
      return 1;
    }

    // The probe's JSON report replaces hand-rolled per-request printing.
    probe.write_json(std::cout, reject_reason_name);
    std::cout << "\n# schedulability " << result.granted_count() << "/"
              << result.outcomes.size() << "\n";

    if (!metrics_out.empty()) {
      obs::MetricsRegistry registry;
      probe.export_metrics(registry, reject_reason_name);
      if (!write_file(metrics_out,
                      [&](std::ostream& os) { registry.write_jsonl(os); })) {
        return 1;
      }
    }
    if (!trace_out.empty()) {
      if (!write_file(trace_out,
                      [&](std::ostream& os) { tracer.write(os); })) {
        return 1;
      }
    }
    return 0;
  }

  return usage();
}
