// Unit tests for the rule framework: module classification, suppression
// parsing, the per-file rules, and the include graph. Fixture-file coverage
// lives in tools/CMakeLists.txt (--expect runs); these tests pin the library
// behavior the fixtures rely on.
#include "ftlint/rules.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ftlint/engine.hpp"
#include "ftlint/include_graph.hpp"
#include "ftlint/source_file.hpp"

namespace ftlint {
namespace {

std::vector<Finding> findings_for(const std::string& path,
                                  std::string_view content) {
  const SourceFile src = parse_source(path, content);
  std::vector<Finding> out;
  run_file_rules(src, collect_unordered_names(src), out);
  return out;
}

bool has_rule(const std::vector<Finding>& findings, std::string_view rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

TEST(ModuleOf, ClassifiesRealAndFixturePaths) {
  EXPECT_EQ(module_of("src/core/scheduler.cpp"), "src/core");
  EXPECT_EQ(module_of("src/util/rng.hpp"), "src/util");
  EXPECT_EQ(module_of("tools/ftreport.cpp"), "tools");
  EXPECT_EQ(module_of("tests/core/levelwise_test.cpp"), "tests");
  // Fixture trees imitate modules: the LAST marker segment wins.
  EXPECT_EQ(module_of("tools/ftlint_fixtures/src/core/bad.cpp"), "src/core");
  EXPECT_EQ(module_of("tools/ftlint_fixtures/src/raw_cout.cpp"), "src");
  EXPECT_EQ(module_of("elsewhere/file.cpp"), "");
}

TEST(Suppressions, TrailingAndStandaloneForms) {
  const SourceFile src = parse_source(
      "src/x.cpp",
      "int a;  // ftlint:allow(no-raw-io) trailing\n"
      "// ftlint:allow(no-raw-thread,no-raw-random) standalone\n"
      "int b;\n");
  ASSERT_EQ(src.suppressions.size(), 3u);
  EXPECT_EQ(src.suppressions[0].rule, "no-raw-io");
  EXPECT_TRUE(src.suppressions[0].covers(1));
  EXPECT_FALSE(src.suppressions[0].covers(2));
  // The standalone comment on line 2 covers line 3 as well.
  EXPECT_EQ(src.suppressions[1].rule, "no-raw-thread");
  EXPECT_EQ(src.suppressions[2].rule, "no-raw-random");
  EXPECT_TRUE(src.suppressions[1].covers(2));
  EXPECT_TRUE(src.suppressions[1].covers(3));
}

TEST(Suppressions, ProseAboutAnnotationsIsIgnored) {
  const SourceFile src = parse_source(
      "src/x.cpp",
      "// the ftlint:allow(<rule>) form suppresses a finding\n"
      "// see ftlint:order-insensitive for loops\n"
      "// plain mention of ftlint: the tag alone\n");
  EXPECT_TRUE(src.suppressions.empty());
}

TEST(Suppressions, OrderInsensitiveRequiresJustification) {
  const SourceFile with = parse_source(
      "src/x.cpp", "// ftlint:order-insensitive(sum commutes)\nint a;\n");
  ASSERT_EQ(with.suppressions.size(), 1u);
  EXPECT_EQ(with.suppressions[0].rule, "unordered-iteration");
  EXPECT_TRUE(with.suppressions[0].order_insensitive);

  const SourceFile without =
      parse_source("src/x.cpp", "int a;  // ftlint:order-insensitive()\n");
  ASSERT_EQ(without.suppressions.size(), 1u);
  EXPECT_TRUE(without.suppressions[0].malformed);
}

TEST(Rules, CatalogNamesAreKnown) {
  EXPECT_TRUE(known_rule("layering"));
  EXPECT_TRUE(known_rule("unordered-iteration"));
  EXPECT_TRUE(known_rule("mutex-guarded-by"));
  EXPECT_TRUE(known_rule("dead-suppression"));
  EXPECT_TRUE(known_rule("flight-event-guard"));
  EXPECT_TRUE(known_rule("no-raw-timing"));
  EXPECT_FALSE(known_rule("no-such-rule"));
  EXPECT_EQ(rule_catalog().size(), 18u);
}

TEST(Rules, DeterministicModules) {
  EXPECT_TRUE(deterministic_module("src/core"));
  EXPECT_TRUE(deterministic_module("src/exec"));
  EXPECT_TRUE(deterministic_module("src/stats"));
  EXPECT_FALSE(deterministic_module("src/obs"));
  EXPECT_FALSE(deterministic_module("tools"));
}

TEST(Rules, LayeringFlagsUpwardAndDriverEdges) {
  const auto findings = findings_for(
      "src/util/bad.hpp",
      "#pragma once\n#include \"core/request.hpp\"\n"
      "#include \"tests/helper.hpp\"\n#include \"util/status.hpp\"\n");
  EXPECT_EQ(findings.size(), 2u);
  EXPECT_TRUE(has_rule(findings, "layering"));
}

TEST(Rules, LayeringAllowsDeclaredDependencies) {
  const auto findings = findings_for(
      "src/core/ok.hpp",
      "#pragma once\n#include \"linkstate/link_state.hpp\"\n"
      "#include \"topology/fat_tree.hpp\"\n#include \"util/status.hpp\"\n");
  EXPECT_FALSE(has_rule(findings, "layering"));
}

TEST(Rules, UnorderedIterationNeedsDeterministicModule) {
  const std::string body =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> m;\n"
      "int f() { int t = 0; for (const auto& [k, v] : m) t += v; return t; }\n";
  EXPECT_TRUE(has_rule(findings_for("src/core/a.cpp", body),
                       "unordered-iteration"));
  // obs is exempt: export order is an output concern, not a scheduling one.
  EXPECT_FALSE(has_rule(findings_for("src/obs/a.cpp", body),
                        "unordered-iteration"));
}

TEST(Rules, UnorderedNamesMergeAcrossHeaderAndSource) {
  // The member is declared in the header; the .cpp only iterates it.
  const SourceFile header = parse_source(
      "src/core/m.hpp",
      "#pragma once\n#include <unordered_map>\n"
      "struct M { std::unordered_map<int, int> open_; };\n");
  const SourceFile source = parse_source(
      "src/core/m.cpp",
      "int f(const M& m) { int t = 0;\n"
      "for (const auto& [k, v] : m.open_) t += v; return t; }\n");
  std::set<std::string> names = collect_unordered_names(header);
  const std::set<std::string> from_cpp = collect_unordered_names(source);
  names.insert(from_cpp.begin(), from_cpp.end());
  ASSERT_EQ(names.count("open_"), 1u);
  std::vector<Finding> out;
  run_file_rules(source, names, out);
  EXPECT_TRUE(has_rule(out, "unordered-iteration"));
}

TEST(Rules, MutexNeedsAssociation) {
  const std::string bad =
      "#include <mutex>\nclass C { std::mutex mu_; int v_ = 0; };\n";
  EXPECT_TRUE(has_rule(findings_for("src/core/c.hpp", bad),
                       "mutex-guarded-by"));
  const std::string good =
      "#include \"util/contracts.hpp\"\n#include <mutex>\n"
      "class C { std::mutex mu_; int v_ FT_GUARDED_BY(mu_) = 0; };\n";
  EXPECT_FALSE(has_rule(findings_for("src/core/c.hpp", good),
                        "mutex-guarded-by"));
}

TEST(Rules, WallclockOnlyInDeterministicModules) {
  const std::string body =
      "#include <chrono>\n"
      "auto f() { return std::chrono::steady_clock::now(); }\n";
  EXPECT_TRUE(has_rule(findings_for("src/des/t.cpp", body), "no-wallclock"));
  EXPECT_FALSE(has_rule(findings_for("tools/t.cpp", body), "no-wallclock"));
}

TEST(Rules, PointerKeyChecksKeyPositionOnly) {
  EXPECT_TRUE(has_rule(
      findings_for("src/core/p.cpp",
                   "#include <map>\nstruct S;\nstd::map<S*, int> bad;\n"),
      "no-pointer-key"));
  EXPECT_FALSE(has_rule(
      findings_for("src/core/p.cpp",
                   "#include <map>\nstruct S;\nstd::map<int, S*> ok;\n"),
      "no-pointer-key"));
}

TEST(Rules, FlightEventGuardRequiresMacro) {
  const std::string bad = "void f(R* flight_) { flight_->record(1); }\n";
  EXPECT_TRUE(has_rule(findings_for("src/fault/f.cpp", bad),
                       "flight-event-guard"));
  EXPECT_TRUE(has_rule(findings_for("src/core/f.cpp", bad),
                       "flight-event-guard"));
  // obs owns the recorder; the macro's own expansion lives there.
  EXPECT_FALSE(has_rule(findings_for("src/obs/f.cpp", bad),
                        "flight-event-guard"));
  // Non-flight receivers (trace writers, metrics) are someone else's API.
  const std::string other = "void f(T* trace_) { trace_->record(1); }\n";
  EXPECT_FALSE(has_rule(findings_for("src/fault/f.cpp", other),
                        "flight-event-guard"));
}

TEST(Rules, RawTimingBansClocksAndCounterSyscalls) {
  const std::string clock_now =
      "#include <chrono>\n"
      "long f() { return std::chrono::steady_clock::now()"
      ".time_since_epoch().count(); }\n";
  EXPECT_TRUE(has_rule(findings_for("bench/t.cpp", clock_now),
                       "no-raw-timing"));
  EXPECT_TRUE(has_rule(findings_for("tools/t.cpp", clock_now),
                       "no-raw-timing"));
  // obs owns the stopwatch; des owns virtual time.
  EXPECT_FALSE(has_rule(findings_for("src/obs/stopwatch.cpp", clock_now),
                        "no-raw-timing"));
  EXPECT_FALSE(has_rule(findings_for("src/des/clock.cpp", clock_now),
                        "no-raw-timing"));

  const std::string syscall =
      "long g() { timespec ts{}; clock_gettime(0, &ts); return ts.tv_nsec; }\n";
  EXPECT_TRUE(has_rule(findings_for("bench/t.cpp", syscall), "no-raw-timing"));
  EXPECT_TRUE(has_rule(findings_for("src/core/t.cpp",
                                    "long h() { return __rdtsc(); }\n"),
                       "no-raw-timing"));
  EXPECT_TRUE(has_rule(findings_for("tools/t.cpp",
                                    "int p() { return perf_event_open"
                                    "(nullptr, 0, -1, -1, 0); }\n"),
                       "no-raw-timing"));
  // A bare `now` identifier (no clock qualifier) is someone else's API.
  EXPECT_FALSE(has_rule(findings_for("bench/t.cpp",
                                     "struct W { long now(); };\n"
                                     "long q(W& w) { return w.now(); }\n"),
                        "no-raw-timing"));
}

TEST(IncludeGraph, FindsCycles) {
  IncludeGraph graph("");
  graph.add(parse_source("d/a.hpp", "#include \"b.hpp\"\n"));
  graph.add(parse_source("d/b.hpp", "#include \"c.hpp\"\n"));
  graph.add(parse_source("d/c.hpp", "#include \"a.hpp\"\n"));
  const auto cycles = graph.cycles();
  ASSERT_EQ(cycles.size(), 1u);
  // Anchored at the lexicographically smallest file, closed by repetition.
  ASSERT_EQ(cycles[0].paths.size(), 4u);
  EXPECT_EQ(cycles[0].paths.front(), "d/a.hpp");
  EXPECT_EQ(cycles[0].paths.back(), "d/a.hpp");
}

TEST(IncludeGraph, AcyclicGraphReportsNothing) {
  IncludeGraph graph("");
  graph.add(parse_source("d/a.hpp", "#include \"b.hpp\"\n"));
  graph.add(parse_source("d/b.hpp", "int x;\n"));
  EXPECT_TRUE(graph.cycles().empty());
}

TEST(Engine, SuppressionAbsorbsFindingAndDeadOnesAreReported) {
  Engine engine(EngineOptions{});
  engine.add_source("src/a.cpp",
                    "#include <iostream>\n"
                    "void f() { std::cout << 1; }  // ftlint:allow(no-raw-io) t\n"
                    "int g() { return 0; }  // ftlint:allow(no-raw-io) dead\n");
  const auto findings = engine.run();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "dead-suppression");
  EXPECT_EQ(findings[0].line, 3u);
}

TEST(Engine, DeadSuppressionCannotBeSuppressed) {
  Engine engine(EngineOptions{});
  engine.add_source("src/a.cpp",
                    "int f() { return 0; }"
                    "  // ftlint:allow(no-raw-io,dead-suppression) sneaky\n");
  const auto findings = engine.run();
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "dead-suppression");
  EXPECT_EQ(findings[1].rule, "dead-suppression");
}

}  // namespace
}  // namespace ftlint
