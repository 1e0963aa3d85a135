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
// candidate is a failure; new candidate points are ignored. The baseline
// decides what is gated: a field it does not carry is not compared.
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
// Every mode reads its inputs through one strict field accessor (Record):
// a required field that is absent, or any field of the wrong type, is a
// parse error naming the file, the record (the point or array element, or
// the JSONL line) and the field — never a 0. docs/OBSERVABILITY.md lists
// each artifact's required and optional fields.
//
// Exit codes: 0 = ok / no regression, 1 = regression, missing benchmark,
// anchor mismatch, or quality-gate failure, 2 = usage or parse error.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/flight_decoder.hpp"
#include "stats/summary.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"

namespace {

using ftsched::Json;
using ftsched::parse_json;
using ftsched::parse_non_negative;
using ftsched::Result;
using ftsched::Summary;
namespace obs = ftsched::obs;

// --- Strict field access ---------------------------------------------------

/// A field that is missing or of the wrong type. main() prints the message
/// and exits 2.
struct FieldError {
  std::string message;
};

template <class T>
inline constexpr bool kIsOptional = false;
template <class T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

/// Indexed by Json::Type.
constexpr const char* kTypeNames[] = {"null",     "a bool",   "a number",
                                      "a string", "an array", "an object"};

/// One record of an input file (a document, a sweep point, a JSONL line, a
/// trace event) and where it sits: "FILE", "FILE: line 7" or
/// "FILE: points[3]". get<T>(key) is the one way every mode reads a field:
///   * double, std::string, bool: the member as that JSON type;
///   * Summary: an object with numeric mean, min, max and stddev;
///   * Record: a nested object, whose fields are named by their path;
///   * std::vector<double>: an array of numbers;
///   * std::vector<Record>: an array of objects, each its own record;
///   * std::optional<U>: the explicit optional form, nullopt when absent.
/// A required member that is absent, or any member of another type, throws
/// FieldError naming the file, the record and the field.
class Record {
 public:
  Record(const Json& json, std::string where, std::string path = {})
      : json_(&json), where_(std::move(where)), path_(std::move(path)) {}

  template <class T>
  T get(std::string_view key) const {
    const Json* value = json_->find(key);
    if constexpr (kIsOptional<T>) {
      if (!value) return std::nullopt;
      return as<typename T::value_type>(*value, key);
    } else {
      if (!value) refuse(key, "is missing");
      return as<T>(*value, key);
    }
  }

  /// The member names, in file order.
  std::vector<std::string> keys() const {
    std::vector<std::string> names;
    for (const auto& [name, value] : json_->object) names.push_back(name);
    return names;
  }

  [[noreturn]] void refuse(std::string_view key,
                           const std::string& what) const {
    throw FieldError{where_ + ": \"" + path_ + std::string(key) + "\" " +
                     what};
  }

 private:
  template <class T>
  T as(const Json& value, std::string_view key) const {
    if constexpr (std::is_same_v<T, double>) {
      expect(value, Json::Type::kNumber, key);
      return value.number;
    } else if constexpr (std::is_same_v<T, std::string>) {
      expect(value, Json::Type::kString, key);
      return value.str;
    } else if constexpr (std::is_same_v<T, bool>) {
      expect(value, Json::Type::kBool, key);
      return value.boolean;
    } else if constexpr (std::is_same_v<T, Record>) {
      expect(value, Json::Type::kObject, key);
      return Record(value, where_, path_ + std::string(key) + ".");
    } else if constexpr (std::is_same_v<T, Summary>) {
      const Record summary = as<Record>(value, key);
      Summary out;
      out.mean = summary.get<double>("mean");
      out.min = summary.get<double>("min");
      out.max = summary.get<double>("max");
      out.stddev = summary.get<double>("stddev");
      return out;
    } else {
      static_assert(std::is_same_v<T, std::vector<double>> ||
                    std::is_same_v<T, std::vector<Record>>);
      expect(value, Json::Type::kArray, key);
      T out;
      for (std::size_t i = 0; i < value.array.size(); ++i) {
        const std::string item =
            std::string(key) + "[" + std::to_string(i) + "]";
        if constexpr (std::is_same_v<T, std::vector<double>>) {
          out.push_back(as<double>(value.array[i], item));
        } else {
          expect(value.array[i], Json::Type::kObject, item);
          out.emplace_back(value.array[i], where_ + ": " + path_ + item);
        }
      }
      return out;
    }
  }

  void expect(const Json& value, Json::Type type, std::string_view key) const {
    if (value.type != type) {
      refuse(key, std::string("must be ") +
                      kTypeNames[static_cast<int>(type)] + ", not " +
                      kTypeNames[static_cast<int>(value.type)]);
    }
  }

  const Json* json_;
  std::string where_;
  std::string path_;  ///< field-name prefix of a nested object ("a.")
};

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

/// Parses a JSON-lines file, one value per non-empty line, into `values`,
/// with one record per value named by its line. A deque, so the records'
/// references stay valid as it grows.
bool parse_jsonl_file(const std::string& path, std::deque<Json>& values,
                      std::vector<Record>& records) {
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
    values.push_back(std::move(parsed).value());
    records.emplace_back(values.back(),
                         path + ": line " + std::to_string(lineno));
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

/// Rows of a two-column counter table: a label and the numeric fields
/// shown in its value cell, joined by " / ".
using CounterRows =
    std::vector<std::pair<const char*, std::vector<const char*>>>;

void counter_table(const char* title, const Record& record,
                   const CounterRows& rows, std::ostream& md) {
  md << "| " << title << " | value |\n|---|---:|\n";
  for (const auto& [label, keys] : rows) {
    md << "| " << label << " |";
    for (std::size_t i = 0; i < keys.size(); ++i) {
      md << (i ? " / " : " ") << fmt(record.get<double>(keys[i]), 0);
    }
    md << " |\n";
  }
}

/// An env fingerprint field as text: "cores" is a number, the rest are
/// strings.
std::optional<std::string> env_field(const Record& env, const char* key) {
  if (std::string_view(key) == "cores") {
    const auto cores = env.get<std::optional<double>>(key);
    if (!cores) return std::nullopt;
    return fmt(*cores, 0);
  }
  return env.get<std::optional<std::string>>(key);
}

/// Warns on every field the two env fingerprints both carry and disagree
/// on. A key only one side carries (old artifacts) is not a mismatch.
void warn_env_mismatches(const Record& base, const Record& cand) {
  for (const char* key : {"cpu", "cores", "compiler", "build", "governor"}) {
    const auto b = env_field(base, key);
    const auto c = env_field(cand, key);
    if (b && c && *b != *c) {
      std::cout << "warning: baseline and candidate env differ — " << key
                << ": '" << *b << "' vs '" << *c
                << "' (comparing anyway; prefer same-box artifacts)\n";
    }
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
  /// Absent (MISSING) when the candidate or its point lacks the field.
  std::optional<double> candidate;
  bool higher_is_better = true;
};

bool is_regression(const Comparison& c, double threshold_pct) {
  if (!c.candidate) return true;
  const double slack = threshold_pct / 100.0;
  if (c.baseline == 0.0) {
    // Nothing to lose; only a sign flip in a lower-is-better metric could
    // regress, which no producer emits.
    return false;
  }
  if (c.higher_is_better) return *c.candidate < c.baseline * (1.0 - slack);
  return *c.candidate > c.baseline * (1.0 + slack);
}

double delta_pct(const Comparison& c) {
  if (c.baseline == 0.0) return 0.0;
  return (*c.candidate - c.baseline) / c.baseline * 100.0;
}

/// A degradation sweep's points carry a fault rate; a fig9 sweep's do not.
bool is_degradation(const std::vector<Record>& points) {
  return !points.empty() &&
         points.front().get<std::optional<double>>("fault_rate").has_value();
}

/// The identity of every point of a sweep, in order: levels and arity, plus
/// the fault rate (and the scheduler, when a multi-scheduler sweep names
/// one) in a degradation file. A fig9 point must carry its "schedulers".
/// Keying a bad point as 0 or skipping it would silently narrow a gate.
std::vector<std::string> point_keys(const std::vector<Record>& points,
                                    bool degradation) {
  std::vector<std::string> keys;
  for (const Record& point : points) {
    std::string key = "levels=" + fmt(point.get<double>("levels"), 0) +
                      " arity=" + fmt(point.get<double>("arity"), 0);
    if (degradation) {
      key += " rate=" + fmt(point.get<double>("fault_rate"), 2);
      // Single-scheduler files (no "scheduler" field) keep the legacy key,
      // so old baselines compare.
      const auto sched = point.get<std::optional<std::string>>("scheduler");
      if (sched) key += " scheduler=" + *sched;
    } else {
      point.get<Record>("schedulers");
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

/// The points of the degradation sweep in `doc`, every one keyed strictly:
/// a file that is not a degradation sweep is refused like a bad field.
std::vector<Record> degradation_points(const Json& doc,
                                       const std::string& path) {
  auto points = Record(doc, path).get<std::vector<Record>>("points");
  if (!is_degradation(points)) {
    throw FieldError{path +
                     ": not a degradation sweep (no \"fault_rate\" points)"};
  }
  point_keys(points, true);
  return points;
}

/// fig9 schema: gate every scheduler of the point on its schedulability
/// mean.
void compare_fig9(const std::string& key, const Record& bp, const Record* cp,
                  std::vector<Comparison>& out) {
  const Record base = bp.get<Record>("schedulers");
  const std::optional<Record> cand =
      cp ? std::optional(cp->get<Record>("schedulers")) : std::nullopt;
  for (const std::string& sched : base.keys()) {
    const auto stats = cand ? cand->get<std::optional<Record>>(sched)
                            : std::nullopt;
    out.push_back(
        {key + " " + sched, "mean", base.get<Record>(sched).get<double>("mean"),
         stats ? std::optional(stats->get<double>("mean")) : std::nullopt});
  }
}

/// Degradation schema: every (levels, arity, fault_rate) point gates on the
/// three service-level means, the two load-quality means and the recovery
/// success ratio, each one the baseline carries. All are deterministic per
/// seed, so the default threshold is safe cross-machine.
void compare_degradation(const std::string& key, const Record& bp,
                         const Record* cp, std::vector<Comparison>& out) {
  // Load-quality means are lower-is-better: a candidate that keeps the
  // same service ratios but piles its circuits onto fewer planes regresses.
  for (const auto& [section, higher_is_better] :
       {std::pair{"schedulability", true}, std::pair{"open_ratio", true},
        std::pair{"ever_granted", true},
        std::pair{"imbalance_max_over_mean", false},
        std::pair{"imbalance_hotspot", false}}) {
    const auto base = bp.get<std::optional<Record>>(section);
    if (!base) continue;
    const auto cand = cp ? cp->get<std::optional<Record>>(section)
                         : std::nullopt;
    out.push_back(
        {key, std::string(section) + ".mean", base->get<double>("mean"),
         cand ? std::optional(cand->get<double>("mean")) : std::nullopt,
         higher_is_better});
  }
  if (const auto base =
          bp.get<std::optional<double>>("recovery_success_ratio")) {
    out.push_back(
        {key, "recovery_success_ratio", *base,
         cp ? cp->get<std::optional<double>>("recovery_success_ratio")
            : std::nullopt});
  }
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

  Json base_json, cand_json;
  if (!parse_file(base_it->second, base_json) ||
      !parse_file(cand_it->second, cand_json)) {
    return 2;
  }
  const Record base(base_json, base_it->second);
  const Record cand(cand_json, cand_it->second);
  const auto base_env = base.get<std::optional<Record>>("env");
  const auto cand_env = cand.get<std::optional<Record>>("env");
  if (base_env && cand_env) warn_env_mismatches(*base_env, *cand_env);

  const auto base_points = base.get<std::vector<Record>>("points");
  const auto cand_points = cand.get<std::vector<Record>>("points");
  const bool degradation = is_degradation(base_points);
  const std::vector<std::string> base_keys =
      point_keys(base_points, degradation);
  const std::vector<std::string> cand_keys =
      point_keys(cand_points, degradation);

  std::vector<Comparison> comparisons;
  for (std::size_t i = 0; i < base_keys.size(); ++i) {
    const std::string& key = base_keys[i];
    const auto match = std::find(cand_keys.begin(), cand_keys.end(), key);
    const Record* cp =
        match == cand_keys.end()
            ? nullptr
            : &cand_points[static_cast<std::size_t>(match - cand_keys.begin())];
    if (degradation) {
      compare_degradation(key, base_points[i], cp, comparisons);
    } else {
      compare_fig9(key, base_points[i], cp, comparisons);
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
    const char* status = !c.candidate ? "MISSING"
                         : regressed    ? "REGRESSED"
                                        : "ok";
    std::cout << "| " << c.name << " | " << c.metric << " | "
              << fmt(c.baseline) << " | "
              << (c.candidate ? fmt(*c.candidate) : std::string("-")) << " | "
              << (c.candidate ? fmt(delta_pct(c), 2) + "%" : std::string("-"))
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

void report_bench(const Record& bench, const std::vector<Record>& points,
                  std::ostream& md, CsvSink& csv) {
  md << "## Schedulability (bench sweep)\n\n"
     << "bench `" << bench.get<std::string>("bench") << "`, "
     << fmt(bench.get<double>("reps"), 0) << " repetitions\n\n";
  if (points.empty()) {
    md << "_no sweep points_\n\n";
    return;
  }
  // Column set = union of scheduler names across points, in first-seen order.
  std::vector<std::string> scheds;
  for (const Record& point : points) {
    for (const std::string& name : point.get<Record>("schedulers").keys()) {
      if (std::find(scheds.begin(), scheds.end(), name) == scheds.end()) {
        scheds.push_back(name);
      }
    }
  }
  md << "| nodes | levels | arity |";
  for (const std::string& s : scheds) md << " " << s << " |";
  md << "\n|---:|---:|---:|";
  for (std::size_t i = 0; i < scheds.size(); ++i) md << "---:|";
  md << "\n";
  for (const Record& point : points) {
    const double levels = point.get<double>("levels");
    const double arity = point.get<double>("arity");
    md << "| " << fmt(point.get<double>("nodes"), 0) << " | " << fmt(levels, 0)
       << " | " << fmt(arity, 0) << " |";
    const Record columns = point.get<Record>("schedulers");
    for (const std::string& sched : scheds) {
      // A point need not run every scheduler the sweep names.
      const auto column = columns.get<std::optional<Record>>(sched);
      if (!column) {
        md << " - |";
        continue;
      }
      const double mean = column->get<double>("mean");
      md << " " << fmt(mean) << " |";
      csv.add("bench", "levels" + fmt(levels, 0) + ".arity" + fmt(arity, 0) +
                           "." + sched + ".mean",
              mean);
    }
    md << "\n";
  }
  md << "\n";
}

/// Degradation sweep: one row per (topology, fault rate) with the three
/// service levels, recovery counters, and retry-latency percentiles, then
/// the load-quality table when the points carry imbalance summaries.
void report_degradation(const Record& bench, const std::vector<Record>& points,
                        std::ostream& md, CsvSink& csv) {
  md << "## Fault degradation sweep\n\n"
     << "bench `degradation`, " << fmt(bench.get<double>("reps"), 0)
     << " repetitions, horizon " << fmt(bench.get<double>("horizon"), 0)
     << ", retry `" << bench.get<std::string>("retry") << "`\n\n"
     << "| nodes | scheduler | rate | first-attempt | open | ever granted |"
        " victims | recovered | recovery | retry p50/p90/p99 |\n"
        "|---:|---|---:|---:|---:|---:|---:|---:|---:|---:|\n";
  // Each point's row lead and CSV key prefix, shared by both tables.
  std::vector<std::string> leads;
  std::vector<std::string> keys;
  bool have_imbalance = false;
  for (const Record& point : points) {
    // Single-scheduler files name no scheduler; they ran levelwise.
    const std::string scheduler =
        point.get<std::optional<std::string>>("scheduler")
            .value_or("levelwise");
    const std::string rate = fmt(point.get<double>("fault_rate"), 2);
    leads.push_back("| " + fmt(point.get<double>("nodes"), 0) + " | " +
                    scheduler + " | " + rate + " | ");
    keys.push_back("levels" + fmt(point.get<double>("levels"), 0) +
                   ".arity" + fmt(point.get<double>("arity"), 0) + "." +
                   scheduler + ".rate" + rate + ".");
    have_imbalance = have_imbalance ||
                     point.get<std::optional<Record>>("imbalance_hotspot");
    md << leads.back();
    for (const char* section : {"schedulability", "open_ratio",
                                "ever_granted"}) {
      const double mean = point.get<Record>(section).get<double>("mean");
      md << fmt_pct(mean) << " | ";
      csv.add("degradation", keys.back() + section, mean);
    }
    const double recovery = point.get<double>("recovery_success_ratio");
    md << fmt(point.get<double>("victims"), 0) << " | "
       << fmt(point.get<double>("recovered"), 0) << " | " << fmt_pct(recovery)
       << " | ";
    csv.add("degradation", keys.back() + "recovery_success_ratio", recovery);
    // Percentiles are written only when the point sampled a latency.
    const Record latency = point.get<Record>("retry_latency");
    if (latency.get<double>("count") > 0) {
      md << fmt(latency.get<double>("p50"), 1) << "/"
         << fmt(latency.get<double>("p90"), 1) << "/"
         << fmt(latency.get<double>("p99"), 1);
    } else {
      md << "-";
    }
    md << " |\n";
  }
  md << "\n";

  // Load quality of the residual fabric at the horizon: how evenly the
  // surviving planes carry the open circuits. 1.000x = perfectly even;
  // the policy comparison the quality gate (ftreport quality) automates.
  // Pre-imbalance files carry no imbalance summaries and skip the table.
  if (!have_imbalance) return;
  md << "### Degradation quality\n\n"
        "Residual-fabric load imbalance at the horizon (lower is better;"
        " 1.000x = even). `hotspot` is the worst subtree plane's occupancy"
        " over the mean plane; `max/mean` and `CoV` are per-switch"
        " statistics of the worst level and direction.\n\n"
        "| nodes | scheduler | rate | max/mean | CoV | hotspot |\n"
        "|---:|---|---:|---:|---:|---:|\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    md << leads[i];
    for (const auto& [section, suffix] :
         {std::pair{"imbalance_max_over_mean", "x | "},
          std::pair{"imbalance_cov", " | "},
          std::pair{"imbalance_hotspot", "x |\n"}}) {
      const double mean = points[i].get<Record>(section).get<double>("mean");
      md << fmt(mean, 3) << suffix;
      csv.add("degradation", keys[i] + section, mean);
    }
  }
  md << "\n";
}

/// Chaos soak summary ({"bench":"chaos_soak"}). Returns false when the
/// artifact records an invariant violation — the caller exits 2 so a CI
/// soak job fails even if the report itself rendered fine.
bool report_chaos_soak(const Record& soak, std::ostream& md, CsvSink& csv) {
  md << "## Chaos soak\n\n";
  const bool ok = soak.get<bool>("ok");
  md << "scheduler `" << soak.get<std::string>("scheduler") << "` on FT("
     << fmt(soak.get<double>("levels"), 0) << ","
     << fmt(soak.get<double>("m"), 0) << "," << fmt(soak.get<double>("w"), 0)
     << "), seed " << fmt(soak.get<double>("seed"), 0) << ", "
     << fmt(soak.get<double>("ops"), 0) << " ops, invariant epoch "
     << fmt(soak.get<double>("epoch"), 0) << "\n\n";
  const CounterRows rows = {
      {"executed ops", {"executed"}},
      {"skipped ops", {"skipped"}},
      {"invariant epochs", {"epochs"}},
      {"submitted", {"submitted"}},
      {"grants", {"grants"}},
      {"closed", {"closed"}},
      {"open at end", {"open_at_end"}},
      {"fail / repair events", {"fail_events", "repair_events"}},
      {"victims / recovered", {"victims", "recovered"}},
      {"retries / shed / permanent rejects / abandoned",
       {"retries", "shed", "permanent_rejects", "abandoned"}}};
  counter_table("counter", soak, rows, md);
  md << "\n";
  for (const auto& [label, keys] : rows) {
    for (const char* key : keys) csv.add("soak", key, soak.get<double>(key));
  }
  csv.add("soak", "ok", ok ? 1.0 : 0.0);
  if (ok) {
    md << "verdict: **PASS** — invariants clean at every epoch\n\n";
  } else {
    md << "verdict: **FAIL** after " << fmt(soak.get<double>("violation_op"), 0)
       << " executed ops: " << soak.get<std::string>("violation") << "\n\n";
    const double reproducer_ops = soak.get<double>("reproducer_ops");
    if (reproducer_ops > 0) {
      md << "minimal reproducer: " << fmt(reproducer_ops, 0)
         << " ops (shrunk in " << fmt(soak.get<double>("shrink_runs"), 0)
         << " replays); replay with `ftsched soak --replay=...`\n\n";
    }
  }
  return ok;
}

/// MetricsRegistry JSONL. Every line names its metric, and every line but
/// a histogram carries a numeric value; the values are gathered into one
/// record keyed by metric name, which each section reads. A section
/// renders only when its metrics are present: a degrade run exports no
/// `sched.*` totals, a schedule run no `fault.*` counters.
void report_metrics(const std::vector<Record>& lines, const std::string& path,
                    std::ostream& md, CsvSink& csv) {
  md << "## Scheduler metrics\n\n";
  Json values;
  values.type = Json::Type::kObject;
  for (const Record& line : lines) {
    const std::string name = line.get<std::string>("metric");
    if (line.get<std::string>("type") == "histogram") continue;
    Json value;
    value.type = Json::Type::kNumber;
    value.number = line.get<double>("value");
    values.object.emplace_back(name, std::move(value));
  }
  const Record metrics(values, path);

  if (const auto requests =
          metrics.get<std::optional<double>>("sched.requests")) {
    counter_table("total", metrics,
                  {{"batches", {"sched.batches"}},
                   {"requests", {"sched.requests"}},
                   {"grants", {"sched.grants"}},
                   {"rejects", {"sched.rejects"}}},
                  md);
    const double grants = metrics.get<double>("sched.grants");
    if (*requests > 0) {
      md << "| schedulability | " << fmt_pct(grants / *requests) << " |\n";
      csv.add("metrics", "schedulability", grants / *requests);
    }
    md << "\n";
    csv.add("metrics", "requests", *requests);
    csv.add("metrics", "grants", grants);
    csv.add("metrics", "rejects", metrics.get<double>("sched.rejects"));
  }

  // Prefix-grouped breakdowns straight off the metric names: the per-level
  // and per-reason counters exist only for the levels and reasons seen.
  const auto breakdown = [&](const std::string& prefix,
                             const std::string& title,
                             const std::string& csv_prefix) {
    std::vector<std::pair<std::string, double>> items;
    for (const auto& [name, value] : values.object) {
      if (name.rfind(prefix, 0) != 0) continue;
      const std::string label = name.substr(prefix.size());
      // Keep flat children only — "sched.reject.level0" yes,
      // "sched.reject.reason.x" is a different prefix's child.
      if (label.find('.') != std::string::npos) continue;
      items.emplace_back(label, value.number);
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

  // Fault-recovery counters exported by FabricManager.
  if (const auto submitted =
          metrics.get<std::optional<double>>("fault.submitted")) {
    md << "### Fault recovery (FabricManager)\n\n";
    counter_table("counter", metrics,
                  {{"submitted", {"fault.submitted"}},
                   {"first-attempt granted", {"fault.first_attempt_granted"}},
                   {"ever granted", {"fault.ever_granted"}},
                   {"open at end", {"fault.open_circuits"}},
                   {"fail / repair events",
                    {"fault.fail_events", "fault.repair_events"}},
                   {"victims", {"fault.victims"}},
                   {"recovered", {"fault.recovered"}},
                   {"retries", {"fault.retries"}},
                   {"shed / permanent / abandoned",
                    {"fault.shed", "fault.permanent_rejects",
                     "fault.abandoned"}}},
                  md);
    const double victims = metrics.get<double>("fault.victims");
    const double recovered = metrics.get<double>("fault.recovered");
    if (victims > 0) {
      md << "| recovery success | " << fmt_pct(recovered / victims) << " |\n";
      csv.add("metrics", "fault.recovery_success", recovered / victims);
    }
    md << "\n";
    csv.add("metrics", "fault.submitted", *submitted);
    csv.add("metrics", "fault.victims", victims);
    csv.add("metrics", "fault.recovered", recovered);
  }

  // Fabric utilization gauges exported by LinkTelemetry.
  std::vector<std::pair<std::string, double>> fabric;
  for (const auto& [name, value] : values.object) {
    if (name.rfind("fabric.util.", 0) == 0) {
      fabric.emplace_back(name.substr(12), value.number);
    }
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

/// A telemetry line's per-level array ("u" or "d"): exactly one number per
/// link level of the header.
std::vector<double> per_level(const Record& line, const char* key,
                              std::size_t levels) {
  std::vector<double> values = line.get<std::vector<double>>(key);
  if (values.size() != levels) {
    line.refuse(key, "has " + std::to_string(values.size()) +
                         " entries for " + std::to_string(levels) +
                         " link levels");
  }
  return values;
}

void report_telemetry(const std::vector<Record>& lines,
                      const std::string& path, std::ostream& md,
                      CsvSink& csv) {
  md << "## Fabric link telemetry\n\n";
  const Record* header = nullptr;
  std::vector<const Record*> samples;
  const Record* utilization = nullptr;
  std::vector<const Record*> saturations;
  const Record* top = nullptr;
  for (const Record& line : lines) {
    const std::string type = line.get<std::string>("type");
    if (type == "link_telemetry") header = &line;
    else if (type == "sample") samples.push_back(&line);
    else if (type == "utilization") utilization = &line;
    else if (type == "saturation") saturations.push_back(&line);
    else if (type == "top_contended") top = &line;
  }
  // Every other line is read against the header's link levels.
  if (!header) throw FieldError{path + ": no link_telemetry header line"};
  // Channel capacity per level (rows * ports) normalizes occupied counts.
  std::vector<double> capacity;
  for (const Record& shape : header->get<std::vector<Record>>("levels")) {
    capacity.push_back(shape.get<double>("rows") * shape.get<double>("ports"));
  }
  const std::size_t level_count = capacity.size();
  md << fmt(header->get<double>("samples"), 0) << " samples, " << level_count
     << " link levels\n\n";

  if (utilization) {
    md << "### Utilization by level\n\n"
       << "| level | up | down |\n|---:|---:|---:|\n";
    const std::vector<double> up = per_level(*utilization, "u", level_count);
    const std::vector<double> down = per_level(*utilization, "d", level_count);
    for (std::size_t h = 0; h < level_count; ++h) {
      md << "| " << h << " | " << fmt_pct(up[h]) << " | " << fmt_pct(down[h])
         << " |\n";
      csv.add("telemetry", "util.level" + std::to_string(h) + ".up", up[h]);
      csv.add("telemetry", "util.level" + std::to_string(h) + ".down",
              down[h]);
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
      const std::vector<double> up = per_level(*samples[i], "u", level_count);
      const std::vector<double> down =
          per_level(*samples[i], "d", level_count);
      for (std::size_t h = 0; h < level_count; ++h) {
        const double cap = 2 * capacity[h];
        if (cap > 0) sum[h][stage] += (up[h] + down[h]) / cap;
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
    for (const Record* s : saturations) {
      md << "| " << fmt(s->get<double>("level"), 0) << " | "
         << s->get<std::string>("dir") << " | ";
      const std::vector<double> bins = s->get<std::vector<double>>("bins");
      for (std::size_t i = 0; i < bins.size(); ++i) {
        if (i) md << " ";
        md << fmt(bins[i], 0);
      }
      md << " |\n";
    }
    md << "\n";
  }

  const std::vector<Record> links =
      top ? top->get<std::vector<Record>>("links") : std::vector<Record>{};
  if (!links.empty()) {
    md << "### Most contended links\n\n"
       << "| level | row | port | dir | busy samples |\n"
       << "|---:|---:|---:|---|---:|\n";
    for (const Record& link : links) {
      md << "| " << fmt(link.get<double>("level"), 0) << " | "
         << fmt(link.get<double>("row"), 0) << " | "
         << fmt(link.get<double>("port"), 0) << " | "
         << link.get<std::string>("dir") << " | "
         << fmt(link.get<double>("busy"), 0) << " |\n";
    }
    md << "\n";
  }
}

void report_trace(const Record& trace, std::ostream& md, CsvSink& csv) {
  md << "## Trace span rollups\n\n";
  struct Rollup {
    std::size_t count = 0;
    double total_us = 0.0;
    double max_us = 0.0;
  };
  std::map<std::string, Rollup> spans;
  std::size_t instants = 0, counters = 0;
  for (const Record& event : trace.get<std::vector<Record>>("traceEvents")) {
    const std::string ph = event.get<std::string>("ph");
    if (ph == "i" || ph == "I") {
      ++instants;
      continue;
    }
    if (ph == "C") {
      ++counters;
      continue;
    }
    if (ph != "X") continue;
    Rollup& r = spans[event.get<std::string>("name")];
    ++r.count;
    const double d = event.get<double>("dur");
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
    Json doc;
    if (!parse_file(bench_path, doc)) return 2;
    const Record bench(doc, bench_path);
    if (bench.get<std::string>("bench") == "chaos_soak") {
      // A violation in the artifact fails the report run itself (exit 2):
      // the CI soak job must go red even though the report rendered fine.
      if (!report_chaos_soak(bench, md, csv)) exit_code = 2;
    } else {
      const auto points = bench.get<std::vector<Record>>("points");
      if (is_degradation(points)) {
        report_degradation(bench, points, md, csv);
      } else {
        report_bench(bench, points, md, csv);
      }
    }
  }
  if (!metrics_path.empty()) {
    std::deque<Json> values;
    std::vector<Record> lines;
    if (!parse_jsonl_file(metrics_path, values, lines)) return 2;
    report_metrics(lines, metrics_path, md, csv);
  }
  if (!telemetry_path.empty()) {
    std::deque<Json> values;
    std::vector<Record> lines;
    if (!parse_jsonl_file(telemetry_path, values, lines)) return 2;
    report_telemetry(lines, telemetry_path, md, csv);
  }
  if (!trace_path.empty()) {
    Json trace;
    if (!parse_file(trace_path, trace)) return 2;
    report_trace(Record(trace, trace_path), md, csv);
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
  Json deg_json, fig9_json;
  if (!parse_file(deg_it->second, deg_json) ||
      !parse_file(fig9_it->second, fig9_json)) {
    return 2;
  }
  // Every point is keyed strictly: a point whose levels, arity or fault
  // rate is not a number is refused, never read as 0 and skipped.
  const auto deg_points = degradation_points(deg_json, deg_it->second);
  const auto fig9_points =
      Record(fig9_json, fig9_it->second).get<std::vector<Record>>("points");
  point_keys(fig9_points, false);

  std::size_t failures = 0;
  std::size_t anchored = 0;
  const auto fail = [&](const std::string& where, const std::string& what) {
    std::cout << "FAIL " << where << ": " << what << "\n";
    ++failures;
  };
  constexpr std::pair<const char*, double Summary::*> kStats[] = {
      {"mean", &Summary::mean},
      {"min", &Summary::min},
      {"max", &Summary::max},
      {"stddev", &Summary::stddev}};

  for (const Record& point : deg_points) {
    const double levels = point.get<double>("levels");
    const double arity = point.get<double>("arity");
    const double rate = point.get<double>("fault_rate");
    // Multi-scheduler sweeps tag each point; --scheduler covers legacy
    // single-scheduler files.
    const std::string point_scheduler =
        point.get<std::optional<std::string>>("scheduler").value_or(scheduler);
    const std::string where = "levels=" + fmt(levels, 0) +
                              " arity=" + fmt(arity, 0) +
                              " rate=" + fmt(rate, 2) + " " + point_scheduler;

    // Internal consistency: service levels are ratios, recovery cannot
    // exceed the victim count, percentiles must be ordered.
    for (const char* section : {"schedulability", "open_ratio",
                                "ever_granted"}) {
      const Summary summary = point.get<Summary>(section);
      for (const auto& [stat, field] :
           {kStats[0], kStats[1], kStats[2]}) {
        const double x = summary.*field;
        if (x < 0.0 || x > 1.0) {
          fail(where, std::string(section) + "." + stat + " = " + fmt(x) +
                          " outside [0, 1]");
        }
      }
    }
    const double ratio = point.get<double>("recovery_success_ratio");
    if (ratio < 0.0 || ratio > 1.0) {
      fail(where, "recovery_success_ratio = " + fmt(ratio) +
                      " outside [0, 1]");
    }
    const double recovered = point.get<double>("recovered");
    const double victims = point.get<double>("victims");
    if (recovered > victims) {
      fail(where, "recovered " + fmt(recovered, 0) + " > victims " +
                      fmt(victims, 0));
    }
    // Imbalance ratios are >= 1 by construction (max over mean; 1.0 when
    // idle) and the CoV is non-negative. Absent in pre-imbalance files.
    for (const char* section : {"imbalance_max_over_mean",
                                "imbalance_hotspot"}) {
      const auto summary = point.get<std::optional<Record>>(section);
      if (summary && summary->get<double>("mean") < 1.0 - 1e-9) {
        fail(where, std::string(section) + ".mean = " +
                        fmt(summary->get<double>("mean"), 6) + " below 1");
      }
    }
    if (const auto cov = point.get<std::optional<Record>>("imbalance_cov");
        cov && cov->get<double>("mean") < 0.0) {
      fail(where, "imbalance_cov.mean = " + fmt(cov->get<double>("mean"), 6) +
                      " negative");
    }
    for (const char* lat_key : {"recovery_latency", "retry_latency"}) {
      // Percentiles are written only when the point sampled a latency.
      const Record lat = point.get<Record>(lat_key);
      if (lat.get<double>("count") <= 0) continue;
      const double p50 = lat.get<double>("p50");
      const double p90 = lat.get<double>("p90");
      const double p99 = lat.get<double>("p99");
      if (!(p50 <= p90 && p90 <= p99)) {
        fail(where, std::string(lat_key) + " percentiles not ordered: " +
                        fmt(p50, 1) + "/" + fmt(p90, 1) + "/" + fmt(p99, 1));
      }
    }

    // Fault-free anchor: bit-identical to the fig9 sweep's scheduler column.
    if (rate != 0.0) continue;
    std::optional<Summary> anchor;
    for (const Record& fp : fig9_points) {
      if (fp.get<double>("levels") == levels &&
          fp.get<double>("arity") == arity) {
        anchor = fp.get<Record>("schedulers")
                     .get<std::optional<Summary>>(point_scheduler);
        break;
      }
    }
    // Topology or scheduler not in this fig9 file — nothing to pin (new
    // policies without a fig9 column are consistency-checked only).
    if (!anchor) continue;
    ++anchored;
    const Summary got = point.get<Summary>("schedulability");
    for (const auto& [stat, field] : kStats) {
      if (got.*field != (*anchor).*field) {
        fail(where, std::string("rate-0 schedulability.") + stat + " = " +
                        fmt(got.*field, 6) + " but " + point_scheduler +
                        " fig9 " + stat + " = " + fmt((*anchor).*field, 6));
      }
    }
    // At rate 0 nothing is ever revoked, so all three service levels agree.
    for (const char* section : {"open_ratio", "ever_granted"}) {
      if (point.get<Summary>(section).mean != got.mean) {
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
  const auto points = degradation_points(doc, bench_it->second);

  std::size_t failures = 0;
  std::size_t gated = 0;
  for (const Record& bp : points) {
    if (bp.get<std::optional<std::string>>("scheduler") != baseline) continue;
    const double levels = bp.get<double>("levels");
    const double arity = bp.get<double>("arity");
    const double rate = bp.get<double>("fault_rate");
    const Record* cp = nullptr;
    for (const Record& point : points) {
      if (point.get<std::optional<std::string>>("scheduler") == candidate &&
          point.get<double>("levels") == levels &&
          point.get<double>("arity") == arity &&
          point.get<double>("fault_rate") == rate) {
        cp = &point;
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

    // Pre-imbalance files carry no hotspot summary.
    std::optional<double> base_hotspot;
    std::optional<double> cand_hotspot;
    if (const auto s = bp.get<std::optional<Record>>("imbalance_hotspot")) {
      base_hotspot = s->get<double>("mean");
    }
    if (const auto s = cp->get<std::optional<Record>>("imbalance_hotspot")) {
      cand_hotspot = s->get<double>("mean");
    }
    if (!base_hotspot || !cand_hotspot) {
      std::cout << "FAIL " << where
                << ": imbalance_hotspot summary missing — re-run the bench"
                   " with this repo's fig_degradation\n";
      ++failures;
    } else if (rate > 0.0 ? !(*cand_hotspot < *base_hotspot)
                          : !(*cand_hotspot <= *base_hotspot)) {
      std::cout << "FAIL " << where << ": " << candidate << " hotspot "
                << fmt(*cand_hotspot, 4) << "x not "
                << (rate > 0.0 ? "below" : "at or below") << " " << baseline
                << " " << fmt(*base_hotspot, 4) << "x\n";
      ++failures;
    }

    const double base_sched =
        bp.get<Record>("schedulability").get<double>("mean");
    const double cand_sched =
        cp->get<Record>("schedulability").get<double>("mean");
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
      std::cout << "ok   " << where << ": hotspot " << fmt(*base_hotspot, 3)
                << "x -> " << fmt(*cand_hotspot, 3) << "x, schedulability "
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
  try {
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
  } catch (const FieldError& error) {
    std::cerr << "ftreport: " << error.message << "\n";
    return 2;
  }
}
