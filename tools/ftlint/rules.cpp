#include "ftlint/rules.hpp"

#include <algorithm>
#include <array>
#include <set>

#include "ftlint/include_graph.hpp"

namespace ftlint {

namespace {

// --- Token helpers ----------------------------------------------------------

/// code[i] is an identifier immediately followed by '(' — a call (or macro
/// invocation) site.
bool is_call(const std::vector<Token>& code, std::size_t i) {
  return code[i].kind == TokKind::kIdent && i + 1 < code.size() &&
         code[i + 1].punct("(");
}

/// The receiver identifier of a member call at code[i] (`recv.f(` or
/// `recv->f(`), or "" when the receiver is not a simple identifier.
std::string receiver_of(const std::vector<Token>& code, std::size_t i) {
  if (i < 2) return "";
  const Token& sep = code[i - 1];
  if (!sep.punct(".") && !sep.punct("->")) return "";
  const Token& recv = code[i - 2];
  return recv.kind == TokKind::kIdent ? recv.text : "";
}

/// True when code[i] is qualified by `std::` (i.e. `std` `::` precede it).
bool std_qualified(const std::vector<Token>& code, std::size_t i) {
  return i >= 2 && code[i - 1].punct("::") && code[i - 2].ident("std");
}

bool module_in(const std::string& module,
               std::initializer_list<std::string_view> list) {
  return std::any_of(list.begin(), list.end(),
                     [&](std::string_view m) { return module == m; });
}

void add(std::vector<Finding>& out, const SourceFile& src, std::size_t line,
         std::string_view rule, std::string message) {
  out.push_back(Finding{src.path, line, std::string(rule), std::move(message)});
}

// --- Ported v1 rules (now token-accurate) -----------------------------------

void rule_raw_assert(const SourceFile& src, std::vector<Finding>& out) {
  for (const IncludeDirective& inc : src.includes) {
    if (inc.quoted || (inc.target != "cassert" && inc.target != "assert.h")) {
      continue;
    }
    add(out, src, inc.line, src.is_header ? "api-contract" : "no-raw-assert",
        "do not include <" + inc.target +
            ">; contracts go through util/contracts.hpp");
  }
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    if (!src.code[i].ident("assert") || !is_call(src.code, i)) continue;
    if (receiver_of(src.code, i) != "") continue;  // foo.assert(...) is not ours
    if (src.is_header) {
      add(out, src, src.code[i].line, "api-contract",
          "public API headers must validate arguments with FT_REQUIRE, not "
          "raw assert (raw assert vanishes under NDEBUG)");
    } else {
      add(out, src, src.code[i].line, "no-raw-assert",
          "use FT_REQUIRE/FT_ASSERT from util/contracts.hpp instead of raw "
          "assert");
    }
  }
}

constexpr std::array<std::string_view, 10> kLinkMutators = {
    "occupy",     "occupy_up",    "occupy_down", "occupy_path",
    "release",    "release_path", "set_ulink",   "set_dlink",
    "fail_cable", "repair_cable"};

bool linkstate_receiver(const std::string& recv) {
  return recv == "state" || recv == "state_" ||
         recv.find("link_state") != std::string::npos;
}

void rule_transaction_discipline(const SourceFile& src,
                                 std::vector<Finding>& out) {
  if (src.module != "src/core" ||
      src.filename.find("scheduler") == std::string::npos) {
    return;
  }
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    if (!is_call(src.code, i)) continue;
    const Token& tok = src.code[i];
    if (std::find(kLinkMutators.begin(), kLinkMutators.end(), tok.text) ==
        kLinkMutators.end()) {
      continue;
    }
    const std::string recv = receiver_of(src.code, i);
    if (linkstate_receiver(recv)) {
      add(out, src, tok.line, "transaction-discipline",
          "schedulers must mutate LinkState through a Transaction "
          "(rollback-safe), not via " +
              recv + "." + tok.text + "()");
    }
  }
}

constexpr std::array<std::string_view, 13> kContractMacros = {
    "FT_REQUIRE",        "FT_REQUIRE_MSG",  "FT_ASSERT",
    "FT_UNREACHABLE",    "FT_CAPABILITY",   "FT_SCOPED_CAPABILITY",
    "FT_GUARDED_BY",     "FT_PT_GUARDED_BY", "FT_REQUIRES",
    "FT_ACQUIRE",        "FT_RELEASE",      "FT_ACQUIRED_BEFORE",
    "FT_EXCLUDES"};

void rule_self_contained(const SourceFile& src, std::vector<Finding>& out) {
  if (!src.is_header) return;
  if (!src.pragma_once) {
    add(out, src, 1, "self-contained-header", "header is missing #pragma once");
  }
  if (src.filename == "contracts.hpp") return;
  const bool uses_macro = std::any_of(
      src.code.begin(), src.code.end(), [](const Token& t) {
        return t.kind == TokKind::kIdent &&
               std::find(kContractMacros.begin(), kContractMacros.end(),
                         t.text) != kContractMacros.end();
      });
  if (!uses_macro) return;
  for (const IncludeDirective& inc : src.includes) {
    if (inc.quoted && inc.target == "util/contracts.hpp") return;
  }
  add(out, src, 1, "self-contained-header",
      "header uses FT_* contract macros but does not include "
      "\"util/contracts.hpp\" directly (headers must be self-contained)");
}

constexpr std::array<std::string_view, 9> kRandomBans = {
    "rand",        "srand",      "random_device",
    "mt19937",     "mt19937_64", "minstd_rand",
    "default_random_engine",     "ranlux24", "ranlux48"};

void rule_raw_random(const SourceFile& src, std::vector<Finding>& out) {
  if (src.filename == "rng.hpp") return;
  for (const IncludeDirective& inc : src.includes) {
    if (!inc.quoted && inc.target == "random") {
      add(out, src, inc.line, "no-raw-random",
          "do not include <random>; all randomness must flow through the "
          "seeded ftsched::Xoshiro256ss (util/rng.hpp) for reproducible "
          "figures");
    }
  }
  for (const Token& tok : src.code) {
    if (tok.kind != TokKind::kIdent) continue;
    if (std::find(kRandomBans.begin(), kRandomBans.end(), tok.text) ==
        kRandomBans.end()) {
      continue;
    }
    add(out, src, tok.line, "no-raw-random",
        "non-ftsched randomness '" + tok.text +
            "' breaks seeded reproducibility; use ftsched::Xoshiro256ss "
            "(util/rng.hpp)");
  }
}

void rule_raw_io(const SourceFile& src, std::vector<Finding>& out) {
  if (!src.in_src() || src.module == "src/obs") return;
  if (src.filename == "table.hpp" || src.filename == "table.cpp" ||
      src.filename == "contracts.hpp") {
    return;
  }
  constexpr std::array<std::string_view, 4> kPrinters = {"printf", "fprintf",
                                                         "puts", "fputs"};
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    const Token& tok = src.code[i];
    if (tok.kind != TokKind::kIdent) continue;
    if (tok.text == "cout" || tok.text == "cerr") {
      add(out, src, tok.line, "no-raw-io",
          "library code must not write to std::" + tok.text +
              "; return a Status, take an std::ostream&, or export through "
              "obs/");
      continue;
    }
    if (std::find(kPrinters.begin(), kPrinters.end(), tok.text) !=
            kPrinters.end() &&
        is_call(src.code, i) && receiver_of(src.code, i).empty()) {
      add(out, src, tok.line, "no-raw-io",
          "library code must not call " + tok.text +
              "(); contract failures go through FT_REQUIRE_MSG, data through "
              "obs/ exporters or util/table");
    }
  }
}

void rule_raw_thread(const SourceFile& src, std::vector<Finding>& out) {
  if (!src.in_src() || src.module == "src/exec") return;
  for (const IncludeDirective& inc : src.includes) {
    if (!inc.quoted && (inc.target == "thread" || inc.target == "future")) {
      add(out, src, inc.line, "no-raw-thread",
          "do not include <" + inc.target +
              "> outside src/exec; parallelism goes through exec::ThreadPool "
              "so results stay deterministic");
    }
  }
  constexpr std::array<std::string_view, 6> kBanned = {
      "thread", "jthread", "async", "future", "promise", "packaged_task"};
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    const Token& tok = src.code[i];
    if (tok.kind != TokKind::kIdent || !std_qualified(src.code, i)) continue;
    if (std::find(kBanned.begin(), kBanned.end(), tok.text) == kBanned.end()) {
      continue;
    }
    add(out, src, tok.line, "no-raw-thread",
        "raw std::" + tok.text +
            " outside src/exec has no determinism contract; use "
            "exec::ThreadPool / exec::parallel_chunks instead");
  }
}

void rule_linkstate_authority(const SourceFile& src,
                              std::vector<Finding>& out) {
  if (!src.in_src()) return;
  if (module_in(src.module,
                {"src/core", "src/fault", "src/linkstate", "src/simnet"})) {
    return;
  }
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    if (!is_call(src.code, i)) continue;
    const Token& tok = src.code[i];
    if (std::find(kLinkMutators.begin(), kLinkMutators.end(), tok.text) ==
        kLinkMutators.end()) {
      continue;
    }
    const std::string recv = receiver_of(src.code, i);
    if (linkstate_receiver(recv)) {
      add(out, src, tok.line, "linkstate-authority",
          "LinkState channels may be mutated only by src/core, src/fault, "
          "src/linkstate, and src/simnet; " +
              recv + "." + tok.text +
              "() here bypasses the circuit/fault residue invariants");
    }
  }
}

// --- Layering ---------------------------------------------------------------

void rule_layering(const SourceFile& src, std::vector<Finding>& out) {
  const std::set<std::string>* allowed = allowed_deps(src.module);
  if (allowed == nullptr) return;  // only src/<subsystem> files are constrained
  for (const IncludeDirective& inc : src.includes) {
    if (!inc.quoted) continue;
    const std::string target = include_target_module(inc.target);
    if (target.empty() || target == src.module) continue;
    if (target == "tools" || target == "bench" || target == "tests" ||
        target == "examples") {
      add(out, src, inc.line, "layering",
          "src/ must not include " + target + "/ (\"" + inc.target +
              "\"): the library layer cannot depend on its drivers");
      continue;
    }
    if (allowed->count(target) == 0) {
      add(out, src, inc.line, "layering",
          src.module + " may not include " + target + " (\"" + inc.target +
              "\"); allowed dependencies are listed in the layering DAG "
              "(docs/ANALYSIS.md)");
    }
  }
}

// --- Determinism family -----------------------------------------------------

constexpr std::array<std::string_view, 4> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

void rule_unordered_iteration(const SourceFile& src,
                              const std::set<std::string>& names,
                              std::vector<Finding>& out) {
  if (!deterministic_module(src.module) || names.empty()) return;
  const std::vector<Token>& code = src.code;
  for (std::size_t i = 0; i < code.size(); ++i) {
    // Range-for over a tracked container: `for ( … : name … )`.
    if (code[i].ident("for") && i + 1 < code.size() && code[i + 1].punct("(")) {
      std::size_t depth = 0;
      bool after_colon = false;
      for (std::size_t j = i + 1; j < code.size(); ++j) {
        if (code[j].punct("(")) ++depth;
        if (code[j].punct(")")) {
          if (--depth == 0) break;
        }
        if (depth == 1 && code[j].punct(":")) after_colon = true;
        if (after_colon && code[j].kind == TokKind::kIdent &&
            names.count(code[j].text) != 0) {
          add(out, src, code[i].line, "unordered-iteration",
              "iteration over unordered container '" + code[j].text +
                  "' has no deterministic order; iterate sorted keys / a "
                  "stable index, or annotate the loop with "
                  "// ftlint:order-insensitive(<why the order cannot be "
                  "observed>)");
          break;
        }
      }
      continue;
    }
    // Iterator walks: name.begin() / name.cbegin().
    if ((code[i].ident("begin") || code[i].ident("cbegin")) &&
        is_call(code, i)) {
      const std::string recv = receiver_of(code, i);
      if (!recv.empty() && names.count(recv) != 0) {
        add(out, src, code[i].line, "unordered-iteration",
            "iterator walk over unordered container '" + recv +
                "' has no deterministic order; iterate sorted keys / a "
                "stable index, or annotate with "
                "// ftlint:order-insensitive(<justification>)");
      }
    }
  }
}

void rule_wallclock(const SourceFile& src, std::vector<Finding>& out) {
  if (!deterministic_module(src.module)) return;
  constexpr std::array<std::string_view, 3> kClocks = {
      "steady_clock", "system_clock", "high_resolution_clock"};
  for (const Token& tok : src.code) {
    if (tok.kind != TokKind::kIdent) continue;
    if (std::find(kClocks.begin(), kClocks.end(), tok.text) == kClocks.end()) {
      continue;
    }
    add(out, src, tok.line, "no-wallclock",
        "wall-clock time (std::chrono::" + tok.text +
            ") in a deterministic subsystem breaks run-to-run equality; take "
            "timestamps in the driver (bench/, tools/) or through obs/");
  }
}

void rule_pointer_key(const SourceFile& src, std::vector<Finding>& out) {
  if (!src.in_src() || src.module == "src/obs") return;
  constexpr std::array<std::string_view, 4> kOrdered = {"map", "set",
                                                        "multimap", "multiset"};
  const std::vector<Token>& code = src.code;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokKind::kIdent || !std_qualified(code, i)) continue;
    if (std::find(kOrdered.begin(), kOrdered.end(), code[i].text) ==
        kOrdered.end()) {
      continue;
    }
    if (i + 1 >= code.size() || !code[i + 1].punct("<")) continue;
    // Scan the FIRST top-level template argument for a '*'.
    std::size_t depth = 1;
    for (std::size_t j = i + 2; j < code.size() && depth > 0; ++j) {
      if (code[j].punct("<")) ++depth;
      if (code[j].punct(">")) --depth;
      if (depth == 1 && code[j].punct(",")) break;  // key type ended
      if (depth == 0) break;
      if (code[j].punct("*")) {
        add(out, src, code[i].line, "no-pointer-key",
            "std::" + code[i].text +
                " keyed by a pointer orders by allocation address, which "
                "varies run to run; key by a stable id instead");
        break;
      }
    }
  }
}

// --- Observability discipline -----------------------------------------------

/// Lifecycle-event emission in the scheduling/fault/linkstate layers must go
/// through obs::Sink::ledger: the sink null-guards the recorder, so a
/// detached ledger costs one branch and a raw `flight->record(...)` call
/// crashes when detached.
void rule_flight_event_guard(const SourceFile& src,
                             std::vector<Finding>& out) {
  if (!module_in(src.module, {"src/core", "src/fault", "src/linkstate"})) {
    return;
  }
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    if (!src.code[i].ident("record") || !is_call(src.code, i)) continue;
    const std::string recv = receiver_of(src.code, i);
    if (recv.find("flight") == std::string::npos) continue;
    add(out, src, src.code[i].line, "flight-event-guard",
        "flight-recorder events must be emitted through obs::Sink::ledger "
        "(null-guarded, free when detached), not a raw " +
            recv + "->record() call");
  }
}

// --- Timing authority -------------------------------------------------------

/// All wall-clock timing flows through src/obs (obs::Stopwatch) so every
/// bench and tool shares one measurement path, and hardware-counter syscalls
/// stay out of drivers altogether. src/des owns virtual time and is the
/// other legitimate clock authority.
void rule_raw_timing(const SourceFile& src, std::vector<Finding>& out) {
  if (module_in(src.module, {"src/obs", "src/des"})) return;
  constexpr std::array<std::string_view, 6> kTimingCalls = {
      "clock_gettime", "gettimeofday", "rdtsc",
      "__rdtsc",       "__rdtscp",     "perf_event_open"};
  constexpr std::array<std::string_view, 4> kClocks = {
      "steady_clock", "system_clock", "high_resolution_clock", "utc_clock"};
  const std::vector<Token>& code = src.code;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (!is_call(code, i)) continue;
    const Token& tok = code[i];
    if (std::find(kTimingCalls.begin(), kTimingCalls.end(), tok.text) !=
        kTimingCalls.end()) {
      add(out, src, tok.line, "no-raw-timing",
          "raw timing source " + tok.text +
              "() outside src/obs and src/des; take wall time through "
              "obs::Stopwatch");
      continue;
    }
    if (tok.ident("now") && i >= 2 && code[i - 1].punct("::") &&
        std::find(kClocks.begin(), kClocks.end(), code[i - 2].text) !=
            kClocks.end()) {
      add(out, src, tok.line, "no-raw-timing",
          "std::chrono::" + code[i - 2].text +
              "::now() outside src/obs and src/des; use obs::Stopwatch so "
              "all timing shares one calibrated measurement path");
    }
  }
}

// --- Lock discipline --------------------------------------------------------

void rule_mutex_guarded_by(const SourceFile& src, std::vector<Finding>& out) {
  if (!src.in_src()) return;
  constexpr std::array<std::string_view, 5> kStdMutexes = {
      "mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
      "recursive_timed_mutex"};
  const std::vector<Token>& code = src.code;

  // All mutexes referenced by an FT_GUARDED_BY/FT_REQUIRES/ordering macro.
  std::set<std::string> associated;
  constexpr std::array<std::string_view, 5> kAssocMacros = {
      "FT_GUARDED_BY", "FT_PT_GUARDED_BY", "FT_REQUIRES",
      "FT_ACQUIRED_BEFORE", "FT_ACQUIRED_AFTER"};
  for (std::size_t i = 0; i + 2 < code.size(); ++i) {
    if (code[i].kind != TokKind::kIdent ||
        std::find(kAssocMacros.begin(), kAssocMacros.end(), code[i].text) ==
            kAssocMacros.end() ||
        !code[i + 1].punct("(")) {
      continue;
    }
    for (std::size_t j = i + 2; j < code.size() && !code[j].punct(")"); ++j) {
      if (code[j].kind == TokKind::kIdent) associated.insert(code[j].text);
    }
  }

  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& tok = code[i];
    const bool std_mutex =
        std::find(kStdMutexes.begin(), kStdMutexes.end(), tok.text) !=
            kStdMutexes.end() &&
        std_qualified(code, i);
    const bool wrapped = tok.ident("Mutex");
    if (!std_mutex && !wrapped) continue;
    if (i + 1 >= code.size() || code[i + 1].kind != TokKind::kIdent) continue;
    const std::string& name = code[i + 1].text;
    // Declaration shapes only: `Mutex name;` / `std::mutex name{…};`.
    if (i + 2 < code.size() && !code[i + 2].punct(";") &&
        !code[i + 2].punct("{") && !code[i + 2].punct("=")) {
      continue;
    }
    if (associated.count(name) == 0) {
      add(out, src, tok.line, "mutex-guarded-by",
          "mutex '" + name +
              "' has no FT_GUARDED_BY/FT_REQUIRES association in this file; "
              "state a lock-discipline contract (util/contracts.hpp) so "
              "ftlint and -Wthread-safety can check it");
    }
  }
}

}  // namespace

// --- Catalog ----------------------------------------------------------------

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {"no-raw-assert",
       "contract violations go through FT_REQUIRE/FT_ASSERT, never raw "
       "assert()"},
      {"api-contract",
       "public API headers validate arguments with FT_REQUIRE, not raw "
       "assert"},
      {"transaction-discipline",
       "schedulers mutate LinkState only through a rollback-safe Transaction"},
      {"self-contained-header",
       "headers carry #pragma once and include util/contracts.hpp directly "
       "when using FT_* macros"},
      {"no-raw-random",
       "all randomness flows through the seeded ftsched::Xoshiro256ss"},
      {"no-raw-io",
       "library code never prints; data goes through obs/ exporters or "
       "util/table"},
      {"no-raw-thread",
       "src/exec is the only subsystem allowed to touch <thread>/<future>"},
      {"linkstate-authority",
       "LinkState channel mutators are called only from core/fault/linkstate/"
       "simnet"},
      {"layering",
       "#include edges must follow the subsystem DAG; src/ never includes "
       "tools/, bench/, or tests/"},
      {"include-cycle", "file-level include cycles are forbidden"},
      {"unresolved-include",
       "every quoted include must resolve to a file (catches renames and "
       "phantom headers)"},
      {"unordered-iteration",
       "deterministic subsystems do not iterate unordered containers without "
       "an order-insensitive justification"},
      {"no-wallclock",
       "deterministic subsystems never read wall clocks "
       "(std::chrono::*_clock)"},
      {"no-pointer-key",
       "ordered containers keyed by pointers order by allocation address — "
       "nondeterministic across runs"},
      {"mutex-guarded-by",
       "every mutex member carries at least one FT_GUARDED_BY/FT_REQUIRES "
       "association"},
      {"flight-event-guard",
       "core/fault/linkstate emit lifecycle events only through the "
       "null-guarded obs::Sink::ledger, never a raw flight ring record() "
       "call"},
      {"dead-suppression",
       "ftlint:allow / order-insensitive annotations must suppress something "
       "(and parse)"},
      {"no-raw-timing",
       "timing flows through obs/ (Stopwatch); raw clocks and counter "
       "syscalls live only in src/obs and src/des"},
  };
  return kCatalog;
}

bool known_rule(std::string_view name) {
  const auto& catalog = rule_catalog();
  return std::any_of(catalog.begin(), catalog.end(),
                     [&](const RuleInfo& r) { return r.name == name; });
}

bool deterministic_module(const std::string& module) {
  return module_in(module, {"src/core", "src/fault", "src/linkstate",
                            "src/exec", "src/simnet", "src/des", "src/stats"});
}

std::set<std::string> collect_unordered_names(const SourceFile& src) {
  std::set<std::string> names;
  const std::vector<Token>& code = src.code;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokKind::kIdent ||
        std::find(kUnorderedTypes.begin(), kUnorderedTypes.end(),
                  code[i].text) == kUnorderedTypes.end()) {
      continue;
    }
    std::size_t j = i + 1;
    if (j >= code.size() || !code[j].punct("<")) continue;  // e.g. an #include
    std::size_t depth = 1;
    for (++j; j < code.size() && depth > 0; ++j) {
      if (code[j].punct("<")) ++depth;
      if (code[j].punct(">")) --depth;
    }
    // Declarator(s): skip ref/pointer glyphs, take `name`, then `, name`…
    while (j < code.size()) {
      while (j < code.size() && (code[j].punct("&") || code[j].punct("*"))) ++j;
      if (j >= code.size() || code[j].kind != TokKind::kIdent) break;
      names.insert(code[j].text);
      if (j + 1 < code.size() && code[j + 1].punct(",")) {
        j += 2;
        continue;
      }
      break;
    }
  }
  return names;
}

void run_file_rules(const SourceFile& src,
                    const std::set<std::string>& unordered_names,
                    std::vector<Finding>& out) {
  rule_raw_assert(src, out);
  rule_transaction_discipline(src, out);
  rule_self_contained(src, out);
  rule_raw_random(src, out);
  rule_raw_io(src, out);
  rule_raw_thread(src, out);
  rule_linkstate_authority(src, out);
  rule_layering(src, out);
  rule_unordered_iteration(src, unordered_names, out);
  rule_wallclock(src, out);
  rule_pointer_key(src, out);
  rule_mutex_guarded_by(src, out);
  rule_flight_event_guard(src, out);
  rule_raw_timing(src, out);
}

}  // namespace ftlint
