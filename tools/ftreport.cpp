// ftreport — offline analysis and regression gate for the observability
// outputs this repository emits (docs/OBSERVABILITY.md documents every
// producer).
//
// Report mode: ingest any subset of the artifacts and render one Markdown
// report (optionally a flat CSV as well):
//
//   ftreport report [--metrics FILE.jsonl] [--telemetry FILE.jsonl]
//                   [--trace FILE.json] [--bench BENCH_*.json]
//                   [--flight FILE.jsonl]
//                   [--out report.md] [--csv report.csv]
//
//   * --bench      fig9-schema schedulability table per sweep point.
//                  Chaos-soak artifacts ({"bench":"chaos_soak"}, from `ftsched soak
//                  --json=FILE`) render a soak summary instead — and a
//                  recorded violation fails the report run with exit 2, so
//                  a CI soak job goes red off the artifact alone
//   * --metrics    MetricsRegistry JSONL: scheduling totals, rejection
//                  breakdown by level and by reason, fabric utilization
//   * --telemetry  LinkTelemetry series JSONL: per-level utilization,
//                  level x stage occupancy heatmap (stages = tenths of the
//                  sample window), saturation histograms, top contended links
//   * --trace      Chrome trace JSON: duration-span rollups by name
//   * --flight     FlightRecorder dump (format v1): per-circuit lifecycle
//                  ledger stitched by request id — admission-latency and
//                  revocation-to-recovery p50/p99, worst-offender circuit
//                  timelines, recovery burn-down over simulated time
//
// Regression mode: diff two benchmark JSON files and exit nonzero when the
// candidate got worse — the CI bench gate:
//
//   ftreport --baseline old.json --candidate new.json [--threshold 5%]
//
// Both schemas gate deterministic quantities only (fixed seeds, so tight
// thresholds are safe across machines); wall time is not gated here. The
// repo's fig9 schema ({"bench","reps","points":[...]}) gates each (point,
// scheduler) on the schedulability `mean`. The degradation schema (points
// carry "fault_rate") gates each (point, rate) on the schedulability /
// open_ratio / ever_granted and load-imbalance means and the recovery
// success ratio. A point present in the baseline but missing from the
// candidate is a failure; new candidate points are ignored. A point without
// numeric "levels"/"arity" (and "fault_rate" in a degradation file), or a
// fig9 point without "schedulers", is a parse error naming the file and the
// point index.
//
// Anchor mode: pin the degradation engine's fault-free baseline to the
// one-shot fig9 bench — the two must agree bit for bit (same seeds, same
// scheduler), and the degradation file must be internally consistent
// (ratios in [0,1], victims >= recovered, latency percentiles ordered):
//
//   ftreport anchor --degradation BENCH_degradation.json
//            --fig9 BENCH_fig9a_twolevel.json [--scheduler levelwise]
//
// Rate-0 points whose (levels, arity) appear in the fig9 file must match
// that scheduler's mean/min/max/stddev exactly; any tolerance would hide a
// seed-derivation drift. Multi-scheduler sweeps carry a per-point
// "scheduler" field, which overrides --scheduler for that point; points
// whose scheduler has no fig9 column are consistency-checked but not
// pinned.
//
// Quality mode: the degradation-quality gate. Within ONE multi-scheduler
// degradation sweep, compare a capacity-weighted candidate policy against
// an oblivious baseline at every (topology, fault rate) point both were
// swept at:
//
//   ftreport quality --bench BENCH_degradation.json
//            [--baseline-scheduler levelwise]
//            [--candidate-scheduler levelwise-balanced]
//            [--max-sched-drop 0.02]
//
// The candidate must carry a strictly lower plane hot-spot score
// (imbalance_hotspot.mean) at every faulted rate — balanced routing must
// actually spread load over the surviving subtree planes — while keeping
// schedulability within max-sched-drop (relative) of the baseline; pass 0
// to demand equal-or-better schedulability outright. Both sides are
// deterministic per seed, so the gate is exact, not statistical.
//
// Exit codes: 0 = ok / no regression, 1 = regression, missing benchmark,
// anchor mismatch, or quality-gate failure, 2 = usage or parse error.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight_decoder.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"

namespace {

using ftsched::Json;
using ftsched::parse_json;
using ftsched::parse_non_negative;
using ftsched::Result;
namespace obs = ftsched::obs;

bool parse_file(const std::string& path, Json& out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "ftreport: cannot open " << path << "\n";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  Result<Json> parsed = parse_json(buf.str());
  if (!parsed.ok()) {
    std::cerr << "ftreport: " << path << ": " << parsed.message() << "\n";
    return false;
  }
  out = std::move(parsed).value();
  return true;
}

/// Parses a JSON-lines file: one value per non-empty line.
bool parse_jsonl_file(const std::string& path, std::vector<Json>& out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "ftreport: cannot open " << path << "\n";
    return false;
  }
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    Result<Json> parsed = parse_json(line, lineno);
    if (!parsed.ok()) {
      std::cerr << "ftreport: " << path << ": " << parsed.message() << "\n";
      return false;
    }
    out.push_back(std::move(parsed).value());
  }
  return true;
}

// --- Formatting helpers ----------------------------------------------------

std::string fmt(double v, int precision = 4) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  std::string s = os.str();
  // Trim trailing zeros (but keep one digit after the point).
  const auto dot = s.find('.');
  if (dot != std::string::npos) {
    auto last = s.find_last_not_of('0');
    if (last == dot) ++last;
    s.erase(last + 1);
  }
  return s;
}

std::string fmt_pct(double fraction) { return fmt(fraction * 100.0, 1) + "%"; }

/// Five-step cell shading for the Markdown heatmap (text-only, renders in
/// any viewer).
std::string_view shade(double fraction) {
  if (fraction >= 0.8) return "#### ";
  if (fraction >= 0.6) return "###  ";
  if (fraction >= 0.4) return "##   ";
  if (fraction >= 0.2) return "#    ";
  return ".    ";
}

/// Field-by-field diff of two env fingerprints. Empty when either side did
/// not record one (old artifacts) — absence is not a mismatch, and neither
/// is a key only one side carries.
std::vector<std::string> env_mismatches(const Json& base,
                                        const Json& cand) {
  std::vector<std::string> diffs;
  if (base.type != Json::Type::kObject ||
      cand.type != Json::Type::kObject) {
    return diffs;
  }
  for (const char* key : {"cpu", "cores", "compiler", "build", "governor"}) {
    const Json* b = base.find(key);
    const Json* c = cand.find(key);
    if (!b || !c) continue;
    const std::string bs =
        b->type == Json::Type::kString ? b->str : fmt(b->num_or(0), 0);
    const std::string cs =
        c->type == Json::Type::kString ? c->str : fmt(c->num_or(0), 0);
    if (bs != cs) {
      diffs.push_back(std::string(key) + ": '" + bs + "' vs '" + cs + "'");
    }
  }
  return diffs;
}

void warn_env_mismatches(const Json& base, const Json& cand) {
  for (const std::string& diff : env_mismatches(base, cand)) {
    std::cout << "warning: baseline and candidate env differ — " << diff
              << " (comparing anyway; prefer same-box artifacts)\n";
  }
}

// --- CLI arguments ---------------------------------------------------------

struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;
};

/// Accepts --flag=value and --flag value for the names in `flags`. Any
/// other flag name is a usage error, so a removed option fails loudly
/// instead of being read as something else.
bool parse_args(const std::vector<std::string>& argv,
                const std::vector<std::string>& flags, Args& out) {
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      out.positional.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    const std::string name =
        eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
    if (std::find(flags.begin(), flags.end(), name) == flags.end()) {
      std::cerr << "ftreport: unknown option --" << name << "\n";
      return false;
    }
    if (eq != std::string::npos) {
      out.flags[name] = arg.substr(eq + 1);
    } else if (i + 1 < argv.size()) {
      out.flags[name] = argv[++i];
    } else {
      std::cerr << "ftreport: --" << name << " needs a value\n";
      return false;
    }
  }
  return true;
}

void usage(std::ostream& os) {
  os << "usage:\n"
     << "  ftreport report [--metrics FILE.jsonl] [--telemetry FILE.jsonl]\n"
     << "                  [--trace FILE.json] [--bench BENCH.json]\n"
     << "                  [--flight FILE.jsonl]\n"
     << "                  [--out report.md] [--csv report.csv]\n"
     << "  ftreport --baseline OLD.json --candidate NEW.json\n"
     << "           [--threshold PCT[%]]\n"
     << "  ftreport anchor --degradation BENCH_degradation.json\n"
     << "           --fig9 BENCH_fig9*.json [--scheduler levelwise]\n"
     << "  ftreport quality --bench BENCH_degradation.json\n"
     << "           [--baseline-scheduler levelwise]\n"
     << "           [--candidate-scheduler levelwise-balanced]\n"
     << "           [--max-sched-drop 0.02]\n"
     << "exit: 0 ok, 1 regression/missing benchmark/anchor or quality-gate\n"
     << "      failure, 2 usage or parse error\n";
}

// --- Regression gate -------------------------------------------------------

struct Comparison {
  std::string name;    ///< benchmark identity (point key, + scheduler in fig9)
  std::string metric;  ///< which field was compared
  double baseline = 0.0;
  double candidate = 0.0;
  bool higher_is_better = true;
  bool missing = false;  ///< in baseline but absent from candidate
};

bool is_regression(const Comparison& c, double threshold_pct) {
  if (c.missing) return true;
  const double slack = threshold_pct / 100.0;
  if (c.baseline == 0.0) {
    // Nothing to lose; only a sign flip in a lower-is-better metric could
    // regress, which no producer emits.
    return false;
  }
  if (c.higher_is_better) return c.candidate < c.baseline * (1.0 - slack);
  return c.candidate > c.baseline * (1.0 + slack);
}

double delta_pct(const Comparison& c) {
  if (c.baseline == 0.0) return 0.0;
  return (c.candidate - c.baseline) / c.baseline * 100.0;
}

bool points_have_fault_rate(const Json& doc) {
  const Json* points = doc.find("points");
  if (!points || points->type != Json::Type::kArray ||
      points->array.empty()) {
    return false;
  }
  return points->array.front().find("fault_rate") != nullptr;
}

/// The identity of every point in a regression file, in order: levels and
/// arity, plus the fault rate (and the scheduler, when a multi-scheduler
/// sweep names one) in a degradation file. A point without one of those
/// numbers, or a fig9 point without its "schedulers" object, is a parse
/// error naming the file and the point index: keying it as 0 or skipping it
/// would silently narrow the gate.
std::optional<std::vector<std::string>> point_keys(const Json& points,
                                                   const std::string& path,
                                                   bool degradation) {
  std::vector<std::string> keys;
  for (const Json& point : points.array) {
    const auto bad = [&](const char* what) {
      std::cerr << "ftreport: " << path << ": point " << keys.size() << ": "
                << what << "\n";
      return std::nullopt;
    };
    const auto number = [&](const char* field) -> const Json* {
      const Json* value = point.find(field);
      return value && value->type == Json::Type::kNumber ? value : nullptr;
    };
    const Json* levels = number("levels");
    const Json* arity = number("arity");
    if (!levels || !arity) {
      return bad("\"levels\" and \"arity\" must be numbers");
    }
    std::string key =
        "levels=" + fmt(levels->number, 0) + " arity=" + fmt(arity->number, 0);
    if (degradation) {
      const Json* rate = number("fault_rate");
      if (!rate) return bad("\"fault_rate\" must be a number");
      key += " rate=" + fmt(rate->number, 2);
      // Single-scheduler files (no "scheduler" field) keep the legacy key,
      // so old baselines compare.
      const Json* sched = point.find("scheduler");
      if (sched && sched->type == Json::Type::kString) {
        key += " scheduler=" + sched->str;
      }
    } else {
      const Json* scheds = point.find("schedulers");
      if (!scheds || scheds->type != Json::Type::kObject) {
        return bad("missing \"schedulers\" object");
      }
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

/// Appends one comparison of a baseline value against the candidate's value
/// of the same field: nothing when the baseline does not carry the field as
/// a number, MISSING when the candidate (or its point) does not.
void emit(const std::string& name, const std::string& metric,
          const Json* base, const Json* cand, bool higher_is_better,
          std::vector<Comparison>& out) {
  if (!base || base->type != Json::Type::kNumber) return;
  Comparison c;
  c.name = name;
  c.metric = metric;
  c.baseline = base->number;
  c.higher_is_better = higher_is_better;
  if (!cand || cand->type != Json::Type::kNumber) {
    c.missing = true;
  } else {
    c.candidate = cand->number;
  }
  out.push_back(std::move(c));
}

/// fig9 schema: gate every scheduler of the point on its schedulability
/// mean.
void compare_fig9(const std::string& key, const Json& bp, const Json* cp,
                  std::vector<Comparison>& out) {
  const Json* cand_scheds = cp ? cp->find("schedulers") : nullptr;
  for (const auto& [sched, base_stats] : bp.find("schedulers")->object) {
    const Json* cand_stats = cand_scheds ? cand_scheds->find(sched) : nullptr;
    emit(key + " " + sched, "mean", base_stats.find("mean"),
         cand_stats ? cand_stats->find("mean") : nullptr, true, out);
  }
}

/// Degradation schema: every (levels, arity, fault_rate) point gates on the
/// three service-level means, the two load-quality means and the recovery
/// success ratio. All are deterministic per seed, so the default threshold
/// is safe cross-machine.
void compare_degradation(const std::string& key, const Json& bp,
                         const Json* cp, std::vector<Comparison>& out) {
  const auto emit_mean = [&](const char* section, bool higher_is_better) {
    const Json* bs = bp.find(section);
    const Json* cs = cp ? cp->find(section) : nullptr;
    emit(key, std::string(section) + ".mean", bs ? bs->find("mean") : nullptr,
         cs ? cs->find("mean") : nullptr, higher_is_better, out);
  };
  emit_mean("schedulability", true);
  emit_mean("open_ratio", true);
  emit_mean("ever_granted", true);
  // Load-quality means are lower-is-better: a candidate that keeps the
  // same service ratios but piles its circuits onto fewer planes regresses.
  emit_mean("imbalance_max_over_mean", false);
  emit_mean("imbalance_hotspot", false);
  emit(key, "recovery_success_ratio", bp.find("recovery_success_ratio"),
       cp ? cp->find("recovery_success_ratio") : nullptr, true, out);
}

int run_regression(const Args& args) {
  const auto base_it = args.flags.find("baseline");
  const auto cand_it = args.flags.find("candidate");
  if (base_it == args.flags.end() || cand_it == args.flags.end()) {
    usage(std::cerr);
    return 2;
  }
  double threshold = 5.0;
  if (const auto it = args.flags.find("threshold"); it != args.flags.end()) {
    std::string t = it->second;
    if (!t.empty() && t.back() == '%') t.pop_back();
    const std::optional<double> parsed = parse_non_negative(t);
    if (!parsed) {
      std::cerr << "ftreport: bad --threshold '" << it->second << "'\n";
      return 2;
    }
    threshold = *parsed;
  }

  Json base, cand;
  if (!parse_file(base_it->second, base) ||
      !parse_file(cand_it->second, cand)) {
    return 2;
  }
  const Json* base_env = base.find("env");
  const Json* cand_env = cand.find("env");
  if (base_env && cand_env) warn_env_mismatches(*base_env, *cand_env);

  const auto points_of = [](const Json& doc,
                            const std::string& path) -> const Json* {
    const Json* points = doc.find("points");
    if (points && points->type == Json::Type::kArray) return points;
    std::cerr << "ftreport: " << path
              << ": no \"points\" array (neither fig9 nor degradation"
                 " schema)\n";
    return nullptr;
  };
  const Json* base_points = points_of(base, base_it->second);
  const Json* cand_points =
      base_points ? points_of(cand, cand_it->second) : nullptr;
  if (!cand_points) return 2;
  const bool degradation = points_have_fault_rate(base);
  const auto base_keys =
      point_keys(*base_points, base_it->second, degradation);
  if (!base_keys) return 2;
  const auto cand_keys =
      point_keys(*cand_points, cand_it->second, degradation);
  if (!cand_keys) return 2;

  std::vector<Comparison> comparisons;
  for (std::size_t i = 0; i < base_keys->size(); ++i) {
    const std::string& key = (*base_keys)[i];
    const auto match = std::find(cand_keys->begin(), cand_keys->end(), key);
    const Json* cp =
        match == cand_keys->end()
            ? nullptr
            : &cand_points->array[static_cast<std::size_t>(
                  match - cand_keys->begin())];
    if (degradation) {
      compare_degradation(key, base_points->array[i], cp, comparisons);
    } else {
      compare_fig9(key, base_points->array[i], cp, comparisons);
    }
  }
  if (comparisons.empty()) {
    std::cerr << "ftreport: baseline contains no comparable benchmarks\n";
    return 2;
  }

  std::cout << "# Bench regression gate\n\n"
            << "baseline:  " << base_it->second << "\n"
            << "candidate: " << cand_it->second << "\n"
            << "threshold: " << fmt(threshold, 2) << "%\n\n"
            << "| benchmark | metric | baseline | candidate | delta | status |\n"
            << "|---|---|---:|---:|---:|---|\n";
  std::size_t regressions = 0;
  for (const Comparison& c : comparisons) {
    const bool regressed = is_regression(c, threshold);
    if (regressed) ++regressions;
    const char* status = c.missing     ? "MISSING"
                         : regressed   ? "REGRESSED"
                                       : "ok";
    std::cout << "| " << c.name << " | " << c.metric << " | "
              << fmt(c.baseline) << " | "
              << (c.missing ? std::string("-") : fmt(c.candidate)) << " | "
              << (c.missing ? std::string("-") : fmt(delta_pct(c), 2) + "%")
              << " | " << status << " |\n";
  }
  std::cout << "\n"
            << (comparisons.size() - regressions) << "/" << comparisons.size()
            << " benchmarks within threshold\n";
  if (regressions > 0) {
    std::cout << "FAIL: " << regressions << " regression"
              << (regressions == 1 ? "" : "s") << " detected\n";
    return 1;
  }
  std::cout << "PASS\n";
  return 0;
}

// --- Report mode -----------------------------------------------------------

/// Flat CSV sink: section,key,value — one row per fact the Markdown report
/// states, for spreadsheet ingestion.
struct CsvSink {
  std::ostringstream rows;
  void add(const std::string& section, const std::string& key, double value) {
    rows << section << "," << key << "," << fmt(value, 6) << "\n";
  }
};

void report_bench(const Json& bench, std::ostream& md, CsvSink& csv) {
  md << "## Schedulability (bench sweep)\n\n";
  const Json* name = bench.find("bench");
  const Json* reps = bench.find("reps");
  if (name && name->type == Json::Type::kString) {
    md << "bench `" << name->str << "`";
    if (reps) md << ", " << fmt(reps->num_or(0), 0) << " repetitions";
    md << "\n\n";
  }
  const Json* points = bench.find("points");
  if (!points || points->type != Json::Type::kArray ||
      points->array.empty()) {
    md << "_no sweep points_\n\n";
    return;
  }
  // Column set = union of scheduler names across points, in first-seen order.
  std::vector<std::string> scheds;
  for (const Json& point : points->array) {
    if (const Json* s = point.find("schedulers")) {
      for (const auto& [sched_name, stats] : s->object) {
        (void)stats;
        if (std::find(scheds.begin(), scheds.end(), sched_name) ==
            scheds.end()) {
          scheds.push_back(sched_name);
        }
      }
    }
  }
  md << "| nodes | levels | arity |";
  for (const std::string& s : scheds) md << " " << s << " |";
  md << "\n|---:|---:|---:|";
  for (std::size_t i = 0; i < scheds.size(); ++i) md << "---:|";
  md << "\n";
  for (const Json& point : points->array) {
    const double nodes = point.find("nodes") ? point.find("nodes")->num_or(0) : 0;
    const double levels = point.find("levels") ? point.find("levels")->num_or(0) : 0;
    const double arity = point.find("arity") ? point.find("arity")->num_or(0) : 0;
    md << "| " << fmt(nodes, 0) << " | " << fmt(levels, 0) << " | "
       << fmt(arity, 0) << " |";
    const Json* s = point.find("schedulers");
    for (const std::string& sched : scheds) {
      const Json* stats = s ? s->find(sched) : nullptr;
      const Json* mean = stats ? stats->find("mean") : nullptr;
      if (mean && mean->type == Json::Type::kNumber) {
        md << " " << fmt(mean->number) << " |";
        csv.add("bench", "levels" + fmt(levels, 0) + ".arity" + fmt(arity, 0) +
                             "." + sched + ".mean",
                mean->number);
      } else {
        md << " - |";
      }
    }
    md << "\n";
  }
  md << "\n";
}

/// Degradation sweep: one row per (topology, fault rate) with the three
/// service levels, recovery counters, and retry-latency percentiles.
void report_degradation(const Json& bench, std::ostream& md,
                        CsvSink& csv) {
  md << "## Fault degradation sweep\n\n";
  const Json* reps = bench.find("reps");
  const Json* horizon = bench.find("horizon");
  const Json* retry = bench.find("retry");
  md << "bench `degradation`";
  if (reps) md << ", " << fmt(reps->num_or(0), 0) << " repetitions";
  if (horizon) md << ", horizon " << fmt(horizon->num_or(0), 0);
  if (retry && retry->type == Json::Type::kString) {
    md << ", retry `" << retry->str << "`";
  }
  md << "\n\n";
  const Json* points = bench.find("points");
  if (!points || points->type != Json::Type::kArray ||
      points->array.empty()) {
    md << "_no sweep points_\n\n";
    return;
  }
  const auto scheduler_of = [](const Json& point) {
    const Json* s = point.find("scheduler");
    return s && s->type == Json::Type::kString ? s->str
                                                    : std::string("levelwise");
  };
  md << "| nodes | scheduler | rate | first-attempt | open | ever granted |"
        " victims | recovered | recovery | retry p50/p90/p99 |\n"
        "|---:|---|---:|---:|---:|---:|---:|---:|---:|---:|\n";
  bool have_imbalance = false;
  for (const Json& point : points->array) {
    const auto num = [&](const char* key) {
      const Json* v = point.find(key);
      return v ? v->num_or(0.0) : 0.0;
    };
    const auto mean_of = [&](const char* section) {
      const Json* s = point.find(section);
      const Json* m = s ? s->find("mean") : nullptr;
      return m ? m->num_or(0.0) : 0.0;
    };
    if (point.find("imbalance_hotspot")) have_imbalance = true;
    const double rate = num("fault_rate");
    const std::string key_prefix =
        "levels" + fmt(num("levels"), 0) + ".arity" + fmt(num("arity"), 0) +
        "." + scheduler_of(point) + ".rate" + fmt(rate, 2);
    md << "| " << fmt(num("nodes"), 0) << " | " << scheduler_of(point)
       << " | " << fmt(rate, 2) << " | "
       << fmt_pct(mean_of("schedulability")) << " | "
       << fmt_pct(mean_of("open_ratio")) << " | "
       << fmt_pct(mean_of("ever_granted")) << " | " << fmt(num("victims"), 0)
       << " | " << fmt(num("recovered"), 0) << " | "
       << fmt_pct(num("recovery_success_ratio")) << " | ";
    const Json* lat = point.find("retry_latency");
    const Json* lat_count = lat ? lat->find("count") : nullptr;
    if (lat && lat_count && lat_count->num_or(0) > 0) {
      md << fmt(lat->find("p50") ? lat->find("p50")->num_or(0) : 0, 1) << "/"
         << fmt(lat->find("p90") ? lat->find("p90")->num_or(0) : 0, 1) << "/"
         << fmt(lat->find("p99") ? lat->find("p99")->num_or(0) : 0, 1);
    } else {
      md << "-";
    }
    md << " |\n";
    csv.add("degradation", key_prefix + ".schedulability",
            mean_of("schedulability"));
    csv.add("degradation", key_prefix + ".open_ratio", mean_of("open_ratio"));
    csv.add("degradation", key_prefix + ".ever_granted",
            mean_of("ever_granted"));
    csv.add("degradation", key_prefix + ".recovery_success_ratio",
            num("recovery_success_ratio"));
  }
  md << "\n";

  // Load quality of the residual fabric at the horizon: how evenly the
  // surviving planes carry the open circuits. 1.000x = perfectly even;
  // the policy comparison the quality gate (ftreport quality) automates.
  if (have_imbalance) {
    md << "### Degradation quality\n\n"
          "Residual-fabric load imbalance at the horizon (lower is better;"
          " 1.000x = even). `hotspot` is the worst subtree plane's occupancy"
          " over the mean plane; `max/mean` and `CoV` are per-switch"
          " statistics of the worst level and direction.\n\n"
          "| nodes | scheduler | rate | max/mean | CoV | hotspot |\n"
          "|---:|---|---:|---:|---:|---:|\n";
    for (const Json& point : points->array) {
      const auto num = [&](const char* key) {
        const Json* v = point.find(key);
        return v ? v->num_or(0.0) : 0.0;
      };
      const auto mean_of = [&](const char* section) {
        const Json* s = point.find(section);
        const Json* m = s ? s->find("mean") : nullptr;
        return m ? m->num_or(0.0) : 0.0;
      };
      const double rate = num("fault_rate");
      const std::string key_prefix =
          "levels" + fmt(num("levels"), 0) + ".arity" + fmt(num("arity"), 0) +
          "." + scheduler_of(point) + ".rate" + fmt(rate, 2);
      md << "| " << fmt(num("nodes"), 0) << " | " << scheduler_of(point)
         << " | " << fmt(rate, 2) << " | "
         << fmt(mean_of("imbalance_max_over_mean"), 3) << "x | "
         << fmt(mean_of("imbalance_cov"), 3) << " | "
         << fmt(mean_of("imbalance_hotspot"), 3) << "x |\n";
      csv.add("degradation", key_prefix + ".imbalance_max_over_mean",
              mean_of("imbalance_max_over_mean"));
      csv.add("degradation", key_prefix + ".imbalance_cov",
              mean_of("imbalance_cov"));
      csv.add("degradation", key_prefix + ".imbalance_hotspot",
              mean_of("imbalance_hotspot"));
    }
    md << "\n";
  }
}

/// Chaos soak summary ({"bench":"chaos_soak"}). Returns false when the
/// artifact records an invariant violation — the caller exits 2 so a CI
/// soak job fails even if the report itself rendered fine.
bool report_chaos_soak(const Json& bench, std::ostream& md,
                       CsvSink& csv) {
  md << "## Chaos soak\n\n";
  const auto num = [&](const char* key) {
    const Json* v = bench.find(key);
    return v ? v->num_or(0.0) : 0.0;
  };
  const auto str = [&](const char* key) {
    const Json* v = bench.find(key);
    return v && v->type == Json::Type::kString ? v->str : std::string();
  };
  const Json* ok_value = bench.find("ok");
  const bool ok = ok_value && ok_value->type == Json::Type::kBool &&
                  ok_value->boolean;
  md << "scheduler `" << str("scheduler") << "` on FT(" << fmt(num("levels"), 0)
     << "," << fmt(num("m"), 0) << "," << fmt(num("w"), 0) << "), seed "
     << fmt(num("seed"), 0) << ", " << fmt(num("ops"), 0)
     << " ops, invariant epoch " << fmt(num("epoch"), 0) << "\n\n";
  md << "| counter | value |\n|---|---:|\n"
     << "| executed ops | " << fmt(num("executed"), 0) << " |\n"
     << "| skipped ops | " << fmt(num("skipped"), 0) << " |\n"
     << "| invariant epochs | " << fmt(num("epochs"), 0) << " |\n"
     << "| submitted | " << fmt(num("submitted"), 0) << " |\n"
     << "| grants | " << fmt(num("grants"), 0) << " |\n"
     << "| closed | " << fmt(num("closed"), 0) << " |\n"
     << "| open at end | " << fmt(num("open_at_end"), 0) << " |\n"
     << "| fail / repair events | " << fmt(num("fail_events"), 0) << " / "
     << fmt(num("repair_events"), 0) << " |\n"
     << "| victims / recovered | " << fmt(num("victims"), 0) << " / "
     << fmt(num("recovered"), 0) << " |\n"
     << "| retries / shed / permanent rejects / abandoned | "
     << fmt(num("retries"), 0) << " / " << fmt(num("shed"), 0) << " / "
     << fmt(num("permanent_rejects"), 0) << " / " << fmt(num("abandoned"), 0)
     << " |\n\n";
  for (const char* key :
       {"executed", "skipped", "epochs", "submitted", "grants", "closed",
        "open_at_end", "fail_events", "repair_events", "victims", "recovered",
        "retries", "shed", "permanent_rejects", "abandoned"}) {
    csv.add("soak", key, num(key));
  }
  csv.add("soak", "ok", ok ? 1.0 : 0.0);
  if (ok) {
    md << "verdict: **PASS** — invariants clean at every epoch\n\n";
  } else {
    md << "verdict: **FAIL** after " << fmt(num("violation_op"), 0)
       << " executed ops: " << str("violation") << "\n\n";
    if (num("reproducer_ops") > 0) {
      md << "minimal reproducer: " << fmt(num("reproducer_ops"), 0)
         << " ops (shrunk in " << fmt(num("shrink_runs"), 0)
         << " replays); replay with `ftsched soak --replay=...`\n\n";
    }
  }
  return ok;
}

void report_metrics(const std::vector<Json>& lines, std::ostream& md,
                    CsvSink& csv) {
  md << "## Scheduler metrics\n\n";
  const auto value_of = [&](std::string_view metric) -> const Json* {
    for (const Json& line : lines) {
      const Json* name = line.find("metric");
      if (name && name->type == Json::Type::kString &&
          name->str == metric) {
        return line.find("value");
      }
    }
    return nullptr;
  };
  const auto counter = [&](std::string_view metric) {
    const Json* v = value_of(metric);
    return v ? v->num_or(0.0) : 0.0;
  };

  const double requests = counter("sched.requests");
  const double grants = counter("sched.grants");
  const double rejects = counter("sched.rejects");
  md << "| total | value |\n|---|---:|\n"
     << "| batches | " << fmt(counter("sched.batches"), 0) << " |\n"
     << "| requests | " << fmt(requests, 0) << " |\n"
     << "| grants | " << fmt(grants, 0) << " |\n"
     << "| rejects | " << fmt(rejects, 0) << " |\n";
  if (requests > 0) {
    md << "| schedulability | " << fmt_pct(grants / requests) << " |\n";
    csv.add("metrics", "schedulability", grants / requests);
  }
  md << "\n";
  csv.add("metrics", "requests", requests);
  csv.add("metrics", "grants", grants);
  csv.add("metrics", "rejects", rejects);

  // Prefix-grouped breakdowns straight off the metric names.
  const auto breakdown = [&](const std::string& prefix,
                             const std::string& title,
                             const std::string& csv_prefix) {
    std::vector<std::pair<std::string, double>> items;
    for (const Json& line : lines) {
      const Json* name = line.find("metric");
      if (!name || name->type != Json::Type::kString) continue;
      if (name->str.rfind(prefix, 0) != 0) continue;
      const std::string label = name->str.substr(prefix.size());
      // Keep flat children only — "sched.reject.level0" yes,
      // "sched.reject.reason.x" is a different prefix's child.
      if (label.find('.') != std::string::npos) continue;
      const Json* v = line.find("value");
      items.emplace_back(label, v ? v->num_or(0.0) : 0.0);
    }
    if (items.empty()) return;
    md << "### " << title << "\n\n| key | count | share |\n|---|---:|---:|\n";
    double total = 0;
    for (const auto& [label, v] : items) total += v;
    for (const auto& [label, v] : items) {
      md << "| " << label << " | " << fmt(v, 0) << " | "
         << (total > 0 ? fmt_pct(v / total) : "-") << " |\n";
      csv.add("metrics", csv_prefix + "." + label, v);
    }
    md << "\n";
  };
  breakdown("sched.reject.level", "Rejections by level (level of first failure)",
            "reject.level");
  breakdown("sched.reject.reason.", "Rejections by reason", "reject.reason");
  breakdown("sched.grant.ancestor", "Grants by common-ancestor level",
            "grant.ancestor");

  // Fault-recovery counters exported by FabricManager, if present.
  const double submitted = counter("fault.submitted");
  if (submitted > 0) {
    const double victims = counter("fault.victims");
    const double recovered = counter("fault.recovered");
    md << "### Fault recovery (FabricManager)\n\n| counter | value |\n"
          "|---|---:|\n"
       << "| submitted | " << fmt(submitted, 0) << " |\n"
       << "| first-attempt granted | "
       << fmt(counter("fault.first_attempt_granted"), 0) << " |\n"
       << "| ever granted | " << fmt(counter("fault.ever_granted"), 0)
       << " |\n"
       << "| open at end | " << fmt(counter("fault.open_circuits"), 0)
       << " |\n"
       << "| fail / repair events | " << fmt(counter("fault.fail_events"), 0)
       << " / " << fmt(counter("fault.repair_events"), 0) << " |\n"
       << "| victims | " << fmt(victims, 0) << " |\n"
       << "| recovered | " << fmt(recovered, 0) << " |\n"
       << "| retries | " << fmt(counter("fault.retries"), 0) << " |\n"
       << "| shed / permanent / abandoned | "
       << fmt(counter("fault.shed"), 0) << " / "
       << fmt(counter("fault.permanent_rejects"), 0) << " / "
       << fmt(counter("fault.abandoned"), 0) << " |\n";
    if (victims > 0) {
      md << "| recovery success | " << fmt_pct(recovered / victims) << " |\n";
      csv.add("metrics", "fault.recovery_success", recovered / victims);
    }
    md << "\n";
    csv.add("metrics", "fault.submitted", submitted);
    csv.add("metrics", "fault.victims", victims);
    csv.add("metrics", "fault.recovered", recovered);
  }

  // Fabric utilization gauges exported by LinkTelemetry, if present.
  std::vector<std::pair<std::string, double>> fabric;
  for (const Json& line : lines) {
    const Json* name = line.find("metric");
    if (!name || name->type != Json::Type::kString) continue;
    if (name->str.rfind("fabric.util.", 0) != 0) continue;
    const Json* v = line.find("value");
    fabric.emplace_back(name->str.substr(12), v ? v->num_or(0.0) : 0.0);
  }
  if (!fabric.empty()) {
    md << "### Fabric utilization (from metrics export)\n\n"
       << "| level.dir | utilization |\n|---|---:|\n";
    for (const auto& [label, v] : fabric) {
      md << "| " << label << " | " << fmt_pct(v) << " |\n";
      csv.add("metrics", "fabric.util." + label, v);
    }
    md << "\n";
  }
}

void report_telemetry(const std::vector<Json>& lines, std::ostream& md,
                      CsvSink& csv) {
  md << "## Fabric link telemetry\n\n";
  const Json* header = nullptr;
  std::vector<const Json*> samples;
  const Json* utilization = nullptr;
  std::vector<const Json*> saturations;
  const Json* top = nullptr;
  for (const Json& line : lines) {
    const Json* type = line.find("type");
    if (!type || type->type != Json::Type::kString) continue;
    if (type->str == "link_telemetry") header = &line;
    else if (type->str == "sample") samples.push_back(&line);
    else if (type->str == "utilization") utilization = &line;
    else if (type->str == "saturation") saturations.push_back(&line);
    else if (type->str == "top_contended") top = &line;
  }
  if (!header) {
    md << "_no link_telemetry header line_\n\n";
    return;
  }
  const Json* levels = header->find("levels");
  const std::size_t level_count =
      levels && levels->type == Json::Type::kArray ? levels->array.size()
                                                        : 0;
  const Json* total = header->find("samples");
  md << fmt(total ? total->num_or(0) : 0, 0) << " samples, " << level_count
     << " link levels\n\n";

  // Channel capacity per level (rows * ports) normalizes occupied counts.
  std::vector<double> capacity(level_count, 0.0);
  for (std::size_t h = 0; h < level_count; ++h) {
    const Json& shape = levels->array[h];
    const Json* rows = shape.find("rows");
    const Json* ports = shape.find("ports");
    capacity[h] = (rows ? rows->num_or(0) : 0) * (ports ? ports->num_or(0) : 0);
  }

  if (utilization) {
    md << "### Utilization by level\n\n"
       << "| level | up | down |\n|---:|---:|---:|\n";
    const Json* up = utilization->find("u");
    const Json* down = utilization->find("d");
    for (std::size_t h = 0; h < level_count; ++h) {
      const double u = up && h < up->array.size() ? up->array[h].num_or(0) : 0;
      const double d =
          down && h < down->array.size() ? down->array[h].num_or(0) : 0;
      md << "| " << h << " | " << fmt_pct(u) << " | " << fmt_pct(d) << " |\n";
      csv.add("telemetry", "util.level" + std::to_string(h) + ".up", u);
      csv.add("telemetry", "util.level" + std::to_string(h) + ".down", d);
    }
    md << "\n";
  }

  // Level x stage heatmap: the sample series cut into ten equal stages,
  // mean occupancy fraction (up + down over both capacities) per cell.
  if (!samples.empty()) {
    const std::size_t stages = std::min<std::size_t>(10, samples.size());
    std::vector<std::vector<double>> sum(level_count,
                                         std::vector<double>(stages, 0.0));
    std::vector<std::size_t> stage_n(stages, 0);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const std::size_t stage = i * stages / samples.size();
      ++stage_n[stage];
      const Json* up = samples[i]->find("u");
      const Json* down = samples[i]->find("d");
      for (std::size_t h = 0; h < level_count; ++h) {
        double occupied = 0.0, cap = 0.0;
        if (up && h < up->array.size()) {
          occupied += up->array[h].num_or(0);
          cap += capacity[h];
        }
        if (down && h < down->array.size()) {
          occupied += down->array[h].num_or(0);
          cap += capacity[h];
        }
        if (cap > 0) sum[h][stage] += occupied / cap;
      }
    }
    md << "### Occupancy heatmap (level x stage)\n\n"
       << "Stages are tenths of the sampled window; cells show mean fabric"
          " fill (`#### ` >= 80%, `.    ` < 20%).\n\n| level |";
    for (std::size_t s = 0; s < stages; ++s) md << " s" << s << " |";
    md << "\n|---:|";
    for (std::size_t s = 0; s < stages; ++s) md << "---|";
    md << "\n";
    for (std::size_t h = 0; h < level_count; ++h) {
      md << "| " << h << " |";
      for (std::size_t s = 0; s < stages; ++s) {
        const double mean = stage_n[s] ? sum[h][s] / static_cast<double>(stage_n[s]) : 0.0;
        md << " " << shade(mean) << "|";
        csv.add("telemetry",
                "heat.level" + std::to_string(h) + ".s" + std::to_string(s),
                mean);
      }
      md << "\n";
    }
    md << "\n";
  }

  if (!saturations.empty()) {
    md << "### Saturation histograms (occupied channels per row sample)\n\n"
       << "| level | dir | bins (occ0..occN) |\n|---:|---|---|\n";
    for (const Json* s : saturations) {
      const Json* level = s->find("level");
      const Json* dir = s->find("dir");
      const Json* bins = s->find("bins");
      md << "| " << fmt(level ? level->num_or(0) : 0, 0) << " | "
         << (dir && dir->type == Json::Type::kString ? dir->str : "?")
         << " | ";
      if (bins && bins->type == Json::Type::kArray) {
        for (std::size_t i = 0; i < bins->array.size(); ++i) {
          if (i) md << " ";
          md << fmt(bins->array[i].num_or(0), 0);
        }
      }
      md << " |\n";
    }
    md << "\n";
  }

  if (top) {
    const Json* links = top->find("links");
    if (links && links->type == Json::Type::kArray &&
        !links->array.empty()) {
      md << "### Most contended links\n\n"
         << "| level | row | port | dir | busy samples |\n"
         << "|---:|---:|---:|---|---:|\n";
      for (const Json& link : links->array) {
        md << "| " << fmt(link.find("level") ? link.find("level")->num_or(0) : 0, 0)
           << " | " << fmt(link.find("row") ? link.find("row")->num_or(0) : 0, 0)
           << " | " << fmt(link.find("port") ? link.find("port")->num_or(0) : 0, 0)
           << " | "
           << (link.find("dir") &&
                       link.find("dir")->type == Json::Type::kString
                   ? link.find("dir")->str
                   : "?")
           << " | " << fmt(link.find("busy") ? link.find("busy")->num_or(0) : 0, 0)
           << " |\n";
      }
      md << "\n";
    }
  }
}

void report_trace(const Json& trace, std::ostream& md, CsvSink& csv) {
  md << "## Trace span rollups\n\n";
  const Json* events = trace.find("traceEvents");
  if (!events || events->type != Json::Type::kArray) {
    md << "_no traceEvents array_\n\n";
    return;
  }
  struct Rollup {
    std::size_t count = 0;
    double total_us = 0.0;
    double max_us = 0.0;
  };
  std::map<std::string, Rollup> spans;
  std::size_t instants = 0, counters = 0;
  for (const Json& event : events->array) {
    const Json* ph = event.find("ph");
    if (!ph || ph->type != Json::Type::kString) continue;
    if (ph->str == "i" || ph->str == "I") {
      ++instants;
      continue;
    }
    if (ph->str == "C") {
      ++counters;
      continue;
    }
    if (ph->str != "X") continue;
    const Json* name = event.find("name");
    const Json* dur = event.find("dur");
    if (!name || name->type != Json::Type::kString) continue;
    Rollup& r = spans[name->str];
    ++r.count;
    const double d = dur ? dur->num_or(0.0) : 0.0;
    r.total_us += d;
    r.max_us = std::max(r.max_us, d);
  }
  if (spans.empty()) {
    md << "_no duration spans_\n\n";
    return;
  }
  // Sort by total time, heaviest first.
  std::vector<std::pair<std::string, Rollup>> rows(spans.begin(), spans.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.total_us != b.second.total_us) {
      return a.second.total_us > b.second.total_us;
    }
    return a.first < b.first;
  });
  md << "| span | count | total (us) | mean (us) | max (us) |\n"
     << "|---|---:|---:|---:|---:|\n";
  for (const auto& [name, r] : rows) {
    md << "| " << name << " | " << r.count << " | " << fmt(r.total_us, 1)
       << " | " << fmt(r.total_us / static_cast<double>(r.count), 2) << " | "
       << fmt(r.max_us, 1) << " |\n";
    csv.add("trace", name + ".total_us", r.total_us);
    csv.add("trace", name + ".count", static_cast<double>(r.count));
  }
  md << "\n" << instants << " instant events, " << counters
     << " counter samples\n\n";
}

/// Circuit lifecycle / SLO section from a FlightRecorder dump (format v1),
/// read, stitched by request id and summarized by obs/flight_decoder.
void report_flight(const obs::FlightDump& dump, std::ostream& md,
                   CsvSink& csv) {
  md << "## Circuit lifecycle / SLO (flight recorder)\n\n";
  md << dump.recorded << " events recorded over " << dump.rings
     << " ring(s) of capacity " << dump.capacity << ", " << dump.dropped
     << " dropped\n\n";
  csv.add("flight", "recorded", static_cast<double>(dump.recorded));
  csv.add("flight", "dropped", static_cast<double>(dump.dropped));

  const std::vector<obs::CircuitTimeline> timelines =
      obs::stitch_timelines(dump.records);
  const obs::SloSummary slo = obs::summarize_slo(timelines);
  md << "| circuits | granted | never granted | closed | retries shed |\n"
     << "|---:|---:|---:|---:|---:|\n"
     << "| " << slo.circuits << " | " << slo.granted << " | "
     << slo.never_granted << " | " << slo.closed << " | " << slo.shed
     << " |\n\n";
  csv.add("flight", "circuits", static_cast<double>(slo.circuits));
  csv.add("flight", "granted", static_cast<double>(slo.granted));
  csv.add("flight", "never_granted", static_cast<double>(slo.never_granted));

  // Order statistics with linear interpolation, matching the repo's
  // Summary/Histogram convention.
  const auto pct = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    const double rank = q * static_cast<double>(v.size() - 1);
    const auto lower = static_cast<std::size_t>(rank);
    const double fraction = rank - static_cast<double>(lower);
    if (lower + 1 >= v.size()) return v[lower];
    return v[lower] + fraction * (v[lower + 1] - v[lower]);
  };
  md << "### Admission / recovery SLOs\n\n"
     << "| metric | samples | p50 | p99 |\n|---|---:|---:|---:|\n";
  const auto slo_row = [&](const char* label, const char* key,
                           const std::vector<double>& samples) {
    md << "| " << label << " | " << samples.size() << " | ";
    if (samples.empty()) {
      md << "- | - |\n";
      return;
    }
    const double p50 = pct(samples, 0.50);
    const double p99 = pct(samples, 0.99);
    md << fmt(p50, 1) << " | " << fmt(p99, 1) << " |\n";
    csv.add("flight", std::string(key) + ".p50", p50);
    csv.add("flight", std::string(key) + ".p99", p99);
  };
  slo_row("admission latency (ticks)", "admission_latency",
          slo.admission_latency);
  slo_row("revocation -> recovery (ticks)", "recovery_time",
          slo.recovery_time);
  slo_row("retries per circuit", "retries_per_circuit", slo.retry_count);
  md << "\n";

  // Worst offenders: slowest admissions first, then busiest ledgers. A
  // circuit with no admission sample sorts as -1, after every real one.
  std::vector<double> admission(timelines.size(), -1.0);
  std::vector<std::size_t> worst(timelines.size());
  for (std::size_t i = 0; i < timelines.size(); ++i) {
    if (const auto ticks = obs::admission_latency(timelines[i])) {
      admission[i] = static_cast<double>(*ticks);
    }
    worst[i] = i;
  }
  std::sort(worst.begin(), worst.end(), [&](std::size_t a, std::size_t b) {
    if (admission[a] != admission[b]) return admission[a] > admission[b];
    const std::size_t a_events = timelines[a].events.size();
    const std::size_t b_events = timelines[b].events.size();
    if (a_events != b_events) return a_events > b_events;
    return timelines[a].req < timelines[b].req;
  });
  const std::size_t k_worst = std::min<std::size_t>(5, worst.size());
  if (k_worst > 0) {
    md << "### Worst circuits (by admission latency)\n\n"
       << "| request | admission | retries | timeline |\n"
       << "|---:|---:|---:|---|\n";
    for (std::size_t i = 0; i < k_worst; ++i) {
      const obs::CircuitTimeline& c = timelines[worst[i]];
      std::string timeline;
      for (const obs::FlightEvent& e : c.events) {
        if (!timeline.empty()) timeline += " ";
        timeline += std::string(obs::to_string(e.kind)) + "@" +
                    std::to_string(e.t);
      }
      constexpr std::size_t kMaxTimeline = 120;
      if (timeline.size() > kMaxTimeline) {
        timeline.resize(kMaxTimeline);
        timeline += "...";
      }
      const double ticks = admission[worst[i]];
      md << "| " << c.req << " | "
         << (ticks < 0 ? std::string("-") : fmt(ticks, 0)) << " | "
         << static_cast<std::uint64_t>(slo.retry_count[worst[i]]) << " | `"
         << timeline << "` |\n";
    }
    md << "\n";
  }

  // Recovery burn-down: victims still out of service over simulated time,
  // in tenths of the observed window.
  std::vector<std::pair<double, int>> burn;  ///< (t, +1 revoke / -1 recover)
  for (const obs::FlightRecord& record : dump.records) {
    const obs::FlightEvent& e = record.event;
    if (e.kind == obs::FlightEventKind::kRevoked) {
      burn.emplace_back(static_cast<double>(e.t), 1);
    } else if (e.kind == obs::FlightEventKind::kRecovered) {
      burn.emplace_back(static_cast<double>(e.t), -1);
    }
  }
  if (!burn.empty()) {
    std::sort(burn.begin(), burn.end());
    const double t_max = burn.back().first;
    constexpr std::size_t kStages = 10;
    std::vector<int> outstanding(kStages, 0);
    int level = 0, peak = 0;
    std::size_t b = 0;
    for (std::size_t s = 0; s < kStages; ++s) {
      const double t_end =
          t_max * static_cast<double>(s + 1) / static_cast<double>(kStages);
      while (b < burn.size() && burn[b].first <= t_end) {
        level += burn[b].second;
        ++b;
      }
      outstanding[s] = level;
      peak = std::max(peak, level);
    }
    md << "### Recovery burn-down\n\n"
       << "Victims still out of service at each tenth of the window"
          " (`#### ` = at/near peak backlog).\n\n| stage |";
    for (std::size_t s = 0; s < kStages; ++s) md << " s" << s << " |";
    md << "\n|---|";
    for (std::size_t s = 0; s < kStages; ++s) md << "---|";
    md << "\n| outstanding |";
    for (std::size_t s = 0; s < kStages; ++s) {
      md << " " << outstanding[s] << " |";
      csv.add("flight", "burndown.s" + std::to_string(s),
              static_cast<double>(outstanding[s]));
    }
    md << "\n| backlog |";
    for (std::size_t s = 0; s < kStages; ++s) {
      const double frac =
          peak > 0 ? static_cast<double>(outstanding[s]) / peak : 0.0;
      md << " " << shade(frac) << "|";
    }
    md << "\n\n";
  }
}

int run_report(const Args& args) {
  const auto flag = [&](const char* name) -> std::string {
    const auto it = args.flags.find(name);
    return it == args.flags.end() ? std::string() : it->second;
  };
  const std::string metrics_path = flag("metrics");
  const std::string telemetry_path = flag("telemetry");
  const std::string trace_path = flag("trace");
  const std::string bench_path = flag("bench");
  const std::string flight_path = flag("flight");
  if (metrics_path.empty() && telemetry_path.empty() && trace_path.empty() &&
      bench_path.empty() && flight_path.empty()) {
    std::cerr << "ftreport: report needs at least one input\n";
    usage(std::cerr);
    return 2;
  }

  std::ostringstream md;
  CsvSink csv;
  csv.rows << "section,key,value\n";
  md << "# ftsched observability report\n\n";

  int exit_code = 0;
  if (!bench_path.empty()) {
    Json bench;
    if (!parse_file(bench_path, bench)) return 2;
    const Json* bench_name = bench.find("bench");
    if (bench_name && bench_name->type == Json::Type::kString &&
        bench_name->str == "chaos_soak") {
      // A violation in the artifact fails the report run itself (exit 2):
      // the CI soak job must go red even though the report rendered fine.
      if (!report_chaos_soak(bench, md, csv)) exit_code = 2;
    } else if (points_have_fault_rate(bench)) {
      report_degradation(bench, md, csv);
    } else {
      report_bench(bench, md, csv);
    }
  }
  if (!metrics_path.empty()) {
    std::vector<Json> lines;
    if (!parse_jsonl_file(metrics_path, lines)) return 2;
    report_metrics(lines, md, csv);
  }
  if (!telemetry_path.empty()) {
    std::vector<Json> lines;
    if (!parse_jsonl_file(telemetry_path, lines)) return 2;
    report_telemetry(lines, md, csv);
  }
  if (!trace_path.empty()) {
    Json trace;
    if (!parse_file(trace_path, trace)) return 2;
    report_trace(trace, md, csv);
  }
  if (!flight_path.empty()) {
    std::ifstream in(flight_path);
    if (!in) {
      std::cerr << "ftreport: cannot open " << flight_path << "\n";
      return 2;
    }
    const Result<obs::FlightDump> dump = obs::read_flight_jsonl(in);
    if (!dump.ok()) {
      std::cerr << "ftreport: " << flight_path << ": " << dump.message()
                << "\n";
      return 2;
    }
    report_flight(dump.value(), md, csv);
  }

  const std::string out_path = flag("out");
  if (out_path.empty()) {
    std::cout << md.str();
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "ftreport: cannot open " << out_path << "\n";
      return 2;
    }
    out << md.str();
    std::cout << "report -> " << out_path << "\n";
  }
  const std::string csv_path = flag("csv");
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) {
      std::cerr << "ftreport: cannot open " << csv_path << "\n";
      return 2;
    }
    out << csv.rows.str();
    std::cout << "csv -> " << csv_path << "\n";
  }
  if (exit_code != 0) {
    std::cerr << "ftreport: chaos-soak artifact records an invariant "
                 "violation\n";
  }
  return exit_code;
}

// --- Anchor mode -----------------------------------------------------------

/// Validates a degradation sweep against its fault-free anchor: every rate-0
/// point whose (levels, arity) appears in the fig9 file must reproduce that
/// scheduler's summary bit-for-bit, and every point must be internally
/// consistent (ratios in [0,1], victims >= recovered, ordered percentiles).
int run_anchor(const Args& args) {
  const auto deg_it = args.flags.find("degradation");
  const auto fig9_it = args.flags.find("fig9");
  if (deg_it == args.flags.end() || fig9_it == args.flags.end()) {
    usage(std::cerr);
    return 2;
  }
  std::string scheduler = "levelwise";
  if (const auto it = args.flags.find("scheduler"); it != args.flags.end()) {
    scheduler = it->second;
  }
  Json deg, fig9;
  if (!parse_file(deg_it->second, deg) || !parse_file(fig9_it->second, fig9)) {
    return 2;
  }
  const Json* deg_points = deg.find("points");
  if (!points_have_fault_rate(deg)) {
    std::cerr << "ftreport: " << deg_it->second
              << ": not a degradation sweep (no \"fault_rate\" points)\n";
    return 2;
  }
  const Json* fig9_points = fig9.find("points");
  if (!fig9_points || fig9_points->type != Json::Type::kArray) {
    std::cerr << "ftreport: " << fig9_it->second
              << ": not a fig9 sweep (no \"points\")\n";
    return 2;
  }
  // Every point is keyed strictly: a point whose levels, arity or fault
  // rate is not a number is refused, never read as 0 and skipped.
  if (!point_keys(*deg_points, deg_it->second, true) ||
      !point_keys(*fig9_points, fig9_it->second, false)) {
    return 2;
  }

  std::size_t failures = 0;
  std::size_t anchored = 0;
  const auto fail = [&](const std::string& where, const std::string& what) {
    std::cout << "FAIL " << where << ": " << what << "\n";
    ++failures;
  };

  for (const Json& point : deg_points->array) {
    const auto num = [&](const char* key) {
      const Json* v = point.find(key);
      return v ? v->num_or(0.0) : 0.0;
    };
    const double levels = point.find("levels")->number;
    const double arity = point.find("arity")->number;
    const double rate = point.find("fault_rate")->number;
    // Multi-scheduler sweeps tag each point; --scheduler covers legacy
    // single-scheduler files.
    std::string point_scheduler = scheduler;
    if (const Json* s = point.find("scheduler");
        s && s->type == Json::Type::kString) {
      point_scheduler = s->str;
    }
    const std::string where = "levels=" + fmt(levels, 0) +
                              " arity=" + fmt(arity, 0) +
                              " rate=" + fmt(rate, 2) + " " + point_scheduler;

    // Internal consistency: service levels are ratios, recovery cannot
    // exceed the victim count, percentiles must be ordered.
    for (const char* section : {"schedulability", "open_ratio",
                                "ever_granted"}) {
      const Json* s = point.find(section);
      if (!s) {
        fail(where, std::string("missing \"") + section + "\" summary");
        continue;
      }
      for (const char* stat : {"mean", "min", "max"}) {
        const Json* v = s->find(stat);
        const double x = v ? v->num_or(-1.0) : -1.0;
        if (x < 0.0 || x > 1.0) {
          fail(where, std::string(section) + "." + stat + " = " + fmt(x) +
                          " outside [0, 1]");
        }
      }
    }
    const double ratio = num("recovery_success_ratio");
    if (ratio < 0.0 || ratio > 1.0) {
      fail(where, "recovery_success_ratio = " + fmt(ratio) +
                      " outside [0, 1]");
    }
    if (num("recovered") > num("victims")) {
      fail(where, "recovered " + fmt(num("recovered"), 0) + " > victims " +
                      fmt(num("victims"), 0));
    }
    // Imbalance ratios are >= 1 by construction (max over mean; 1.0 when
    // idle) and the CoV is non-negative. Absent in pre-imbalance files.
    for (const char* section : {"imbalance_max_over_mean",
                                "imbalance_hotspot"}) {
      const Json* s = point.find(section);
      const Json* m = s ? s->find("mean") : nullptr;
      if (s && (!m || m->num_or(0.0) < 1.0 - 1e-9)) {
        fail(where, std::string(section) + ".mean = " +
                        (m ? fmt(m->num_or(0.0), 6) : std::string("missing")) +
                        " below 1");
      }
    }
    if (const Json* s = point.find("imbalance_cov")) {
      const Json* m = s->find("mean");
      if (!m || m->num_or(-1.0) < 0.0) {
        fail(where, "imbalance_cov.mean negative or missing");
      }
    }
    for (const char* lat_key : {"recovery_latency", "retry_latency"}) {
      const Json* lat = point.find(lat_key);
      const Json* count = lat ? lat->find("count") : nullptr;
      if (!lat || !count || count->num_or(0) <= 0) continue;
      const auto pct = [&](const char* p) {
        const Json* v = lat->find(p);
        return v ? v->num_or(0.0) : 0.0;
      };
      if (!(pct("p50") <= pct("p90") && pct("p90") <= pct("p99"))) {
        fail(where, std::string(lat_key) + " percentiles not ordered: " +
                        fmt(pct("p50"), 1) + "/" + fmt(pct("p90"), 1) + "/" +
                        fmt(pct("p99"), 1));
      }
    }

    // Fault-free anchor: bit-identical to the fig9 sweep's scheduler column.
    if (rate != 0.0) continue;
    const Json* anchor = nullptr;
    for (const Json& fp : fig9_points->array) {
      if (fp.find("levels")->number == levels &&
          fp.find("arity")->number == arity) {
        anchor = fp.find("schedulers")->find(point_scheduler);
        break;
      }
    }
    // Topology or scheduler not in this fig9 file — nothing to pin (new
    // policies without a fig9 column are consistency-checked only).
    if (!anchor) continue;
    ++anchored;
    const Json* sched_summary = point.find("schedulability");
    for (const char* stat : {"mean", "min", "max", "stddev"}) {
      const Json* expect = anchor->find(stat);
      const Json* got = sched_summary ? sched_summary->find(stat)
                                           : nullptr;
      if (!expect || !got || expect->number != got->number) {
        fail(where, std::string("rate-0 schedulability.") + stat + " = " +
                        (got ? fmt(got->number, 6) : std::string("missing")) +
                        " but " + point_scheduler + " fig9 " + stat + " = " +
                        (expect ? fmt(expect->number, 6)
                                : std::string("missing")));
      }
    }
    // At rate 0 nothing is ever revoked, so all three service levels agree.
    for (const char* section : {"open_ratio", "ever_granted"}) {
      const Json* s = point.find(section);
      const Json* mean = s ? s->find("mean") : nullptr;
      const Json* base = sched_summary ? sched_summary->find("mean")
                                            : nullptr;
      if (!mean || !base || mean->number != base->number) {
        fail(where, std::string("rate-0 ") + section +
                        ".mean diverges from schedulability.mean");
      }
    }
  }

  std::cout << "anchored " << anchored << " rate-0 point"
            << (anchored == 1 ? "" : "s") << " against " << fig9_it->second
            << "\n";
  if (anchored == 0) {
    std::cout << "FAIL: no rate-0 point matched a fig9 topology —"
                 " nothing was pinned\n";
    return 1;
  }
  if (failures > 0) {
    std::cout << "FAIL: " << failures << " anchor violation"
              << (failures == 1 ? "" : "s") << "\n";
    return 1;
  }
  std::cout << "PASS\n";
  return 0;
}

// --- Quality mode ----------------------------------------------------------

/// The degradation-quality gate: within one multi-scheduler degradation
/// sweep, the capacity-weighted candidate policy must spread load strictly
/// better than the oblivious baseline (lower plane hot-spot score at every
/// faulted rate, no worse at rate 0) while keeping schedulability within
/// --max-sched-drop (relative) of the baseline. Everything compared is
/// deterministic per seed, so failures are real, not noise.
int run_quality(const Args& args) {
  const auto bench_it = args.flags.find("bench");
  if (bench_it == args.flags.end()) {
    usage(std::cerr);
    return 2;
  }
  std::string baseline = "levelwise";
  std::string candidate = "levelwise-balanced";
  double max_sched_drop = 0.02;
  if (const auto it = args.flags.find("baseline-scheduler");
      it != args.flags.end()) {
    baseline = it->second;
  }
  if (const auto it = args.flags.find("candidate-scheduler");
      it != args.flags.end()) {
    candidate = it->second;
  }
  if (const auto it = args.flags.find("max-sched-drop");
      it != args.flags.end()) {
    const std::optional<double> parsed = parse_non_negative(it->second);
    if (!parsed) {
      std::cerr << "ftreport: --max-sched-drop must be a number >= 0, not '"
                << it->second << "'\n";
      return 2;
    }
    max_sched_drop = *parsed;
  }
  Json doc;
  if (!parse_file(bench_it->second, doc)) return 2;
  if (!points_have_fault_rate(doc)) {
    std::cerr << "ftreport: " << bench_it->second
              << ": not a degradation sweep (no \"fault_rate\" points)\n";
    return 2;
  }
  const Json* points = doc.find("points");
  if (!point_keys(*points, bench_it->second, true)) return 2;

  const auto scheduler_of = [](const Json& point) {
    const Json* s = point.find("scheduler");
    return s && s->type == Json::Type::kString ? s->str : std::string();
  };
  const auto mean_of = [](const Json& point, const char* section) {
    const Json* s = point.find(section);
    const Json* m = s ? s->find("mean") : nullptr;
    return m ? m->num_or(-1.0) : -1.0;
  };

  std::size_t failures = 0;
  std::size_t gated = 0;
  for (const Json& bp : points->array) {
    if (scheduler_of(bp) != baseline) continue;
    // point_keys checked that these are numbers.
    const auto num = [](const Json& point, const char* key) {
      return point.find(key)->number;
    };
    const double levels = num(bp, "levels");
    const double arity = num(bp, "arity");
    const double rate = num(bp, "fault_rate");
    const Json* cp = nullptr;
    for (const Json& candidate_point : points->array) {
      if (scheduler_of(candidate_point) != candidate) continue;
      if (num(candidate_point, "levels") == levels &&
          num(candidate_point, "arity") == arity &&
          num(candidate_point, "fault_rate") == rate) {
        cp = &candidate_point;
        break;
      }
    }
    const std::string where = "levels=" + fmt(levels, 0) +
                              " arity=" + fmt(arity, 0) +
                              " rate=" + fmt(rate, 2);
    if (!cp) {
      std::cout << "FAIL " << where << ": no " << candidate
                << " point matches this " << baseline << " point\n";
      ++failures;
      continue;
    }
    ++gated;
    const std::size_t failures_before = failures;

    const double base_hotspot = mean_of(bp, "imbalance_hotspot");
    const double cand_hotspot = mean_of(*cp, "imbalance_hotspot");
    if (base_hotspot < 0.0 || cand_hotspot < 0.0) {
      std::cout << "FAIL " << where
                << ": imbalance_hotspot summary missing — re-run the bench"
                   " with this repo's fig_degradation\n";
      ++failures;
    } else if (rate > 0.0 ? !(cand_hotspot < base_hotspot)
                          : !(cand_hotspot <= base_hotspot)) {
      std::cout << "FAIL " << where << ": " << candidate << " hotspot "
                << fmt(cand_hotspot, 4) << "x not "
                << (rate > 0.0 ? "below" : "at or below") << " " << baseline
                << " " << fmt(base_hotspot, 4) << "x\n";
      ++failures;
    }

    const double base_sched = mean_of(bp, "schedulability");
    const double cand_sched = mean_of(*cp, "schedulability");
    const double floor = base_sched * (1.0 - max_sched_drop);
    if (cand_sched < floor) {
      std::cout << "FAIL " << where << ": " << candidate
                << " schedulability " << fmt(cand_sched, 4) << " below "
                << fmt(floor, 4) << " (" << baseline << " "
                << fmt(base_sched, 4) << " - " << fmt(max_sched_drop * 100, 1)
                << "%)\n";
      ++failures;
    }
    if (failures == failures_before) {
      std::cout << "ok   " << where << ": hotspot " << fmt(base_hotspot, 3)
                << "x -> " << fmt(cand_hotspot, 3) << "x, schedulability "
                << fmt(base_sched, 4) << " -> " << fmt(cand_sched, 4) << "\n";
    }
  }

  std::cout << "gated " << gated << " point" << (gated == 1 ? "" : "s")
            << ": " << candidate << " vs " << baseline << "\n";
  if (gated == 0) {
    std::cout << "FAIL: no (" << baseline << ", " << candidate
              << ") point pair found — nothing was gated\n";
    return 1;
  }
  if (failures > 0) {
    std::cout << "FAIL: " << failures << " quality violation"
              << (failures == 1 ? "" : "s") << "\n";
    return 1;
  }
  std::cout << "PASS\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> raw(argv + 1, argv + argc);
  if (raw.empty() || raw[0] == "--help" || raw[0] == "-h") {
    usage(raw.empty() ? std::cerr : std::cout);
    return raw.empty() ? 2 : 0;
  }
  static const std::vector<std::string> kValueFlags = {
      "baseline", "candidate",   "threshold", "metrics",
      "telemetry", "trace",      "bench",     "out",
      "csv",       "degradation", "fig9",     "scheduler",
      "flight",
      "baseline-scheduler", "candidate-scheduler", "max-sched-drop"};
  const std::string& mode = raw[0];
  const bool named_mode =
      mode == "report" || mode == "anchor" || mode == "quality";
  Args args;
  if (!parse_args({raw.begin() + (named_mode ? 1 : 0), raw.end()},
                  kValueFlags, args)) {
    return 2;
  }
  if (mode == "report") return run_report(args);
  if (mode == "anchor") return run_anchor(args);
  if (mode == "quality") return run_quality(args);
  if (!args.positional.empty()) {
    std::cerr << "ftreport: unknown command '" << args.positional.front()
              << "'\n";
    usage(std::cerr);
    return 2;
  }
  return run_regression(args);
}
