// ChaosSoak — the soak engine's own contract tests.
//
// The engine's value rests on three properties: determinism (same config →
// same script, same verdict, same counters), subset-legality (any subset of
// a script replays without error, the precondition for ddmin shrinking),
// and convergence (an injected violation shrinks to a minimal reproducer
// that still violates on replay and stops violating without the hook).
// Script round-tripping is part of the contract too: a CI soak failure is
// only useful if the committed artifact parses back to the exact run.
#include "fault/chaos_soak.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ftsched {
namespace {

SoakConfig small_config() {
  SoakConfig config;
  config.seed = 77;
  config.ops = 400;
  config.epoch_ops = 16;
  config.open_max = 8;
  config.close_max = 4;
  return config;
}

TEST(ChaosSoak, CleanSoakPassesAndActuallyChurns) {
  const FatTree tree = FatTree::symmetric(3, 4);
  ChaosSoak soak(tree, small_config());
  const SoakReport report = soak.run();
  EXPECT_TRUE(report.ok) << report.violation;
  EXPECT_GT(report.executed, 0u);
  EXPECT_GT(report.epochs, 0u);
  EXPECT_EQ(report.shrink_runs, 0u);
  EXPECT_TRUE(report.reproducer.empty());
  // A soak that never opened a circuit or never failed a cable tested
  // nothing — the default weights must keep all four op kinds live.
  EXPECT_GT(report.stats.grants, 0u);
  EXPECT_GT(report.stats.closed, 0u);
  EXPECT_GT(report.stats.fail_events, 0u);
  EXPECT_GT(report.stats.repair_events, 0u);
}

TEST(ChaosSoak, DeterministicScriptAndVerdict) {
  const FatTree tree = FatTree::symmetric(3, 4);
  ChaosSoak a(tree, small_config());
  ChaosSoak b(tree, small_config());
  EXPECT_EQ(a.generate(), b.generate());

  const SoakReport ra = a.run();
  const SoakReport rb = b.run();
  EXPECT_EQ(ra.ok, rb.ok);
  EXPECT_EQ(ra.executed, rb.executed);
  EXPECT_EQ(ra.skipped, rb.skipped);
  EXPECT_EQ(ra.epochs, rb.epochs);
  EXPECT_EQ(ra.open_at_end, rb.open_at_end);
  EXPECT_EQ(ra.stats.grants, rb.stats.grants);
  EXPECT_EQ(ra.stats.closed, rb.stats.closed);
  EXPECT_EQ(ra.stats.victims, rb.stats.victims);
  EXPECT_EQ(ra.stats.retries, rb.stats.retries);
}

TEST(ChaosSoak, SeedChangesScript) {
  const FatTree tree = FatTree::symmetric(3, 4);
  SoakConfig other = small_config();
  other.seed = 78;
  EXPECT_NE(ChaosSoak(tree, small_config()).generate(),
            ChaosSoak(tree, other).generate());
}

TEST(ChaosSoak, AnySubsetOfAScriptReplaysLegally) {
  // Execution-time legality is what the shrinker leans on: drop every other
  // op (breaking fail/repair pairing and open/close pairing arbitrarily)
  // and the remainder must still run clean, with the now-illegal ops
  // skipped rather than failing.
  const FatTree tree = FatTree::symmetric(3, 4);
  ChaosSoak soak(tree, small_config());
  const std::vector<SoakOp> script = soak.generate();
  std::vector<SoakOp> subset;
  for (std::size_t i = 0; i < script.size(); i += 2) {
    subset.push_back(script[i]);
  }
  const SoakReport report = soak.replay(subset);
  EXPECT_TRUE(report.ok) << report.violation;
  EXPECT_EQ(report.executed + report.skipped, subset.size());
}

TEST(ChaosSoak, InjectedViolationShrinksToMinimalReproducer) {
  const FatTree tree = FatTree::symmetric(3, 4);
  SoakConfig config = small_config();
  // Synthetic invariant: "no circuit is ever revoked". The first fail op
  // that lands on an occupied cable trips it at the next epoch; everything
  // else in the script is noise the shrinker must strip away.
  config.extra_check = [](const FabricManager& fabric) {
    if (fabric.stats().victims > 0) {
      return Status::error("synthetic: a circuit was revoked");
    }
    return Status();
  };
  ChaosSoak soak(tree, config);
  const SoakReport report = soak.run();
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.violation.find("synthetic"), std::string::npos);
  ASSERT_FALSE(report.reproducer.empty());
  EXPECT_GT(report.shrink_runs, 0u);
  EXPECT_LT(report.reproducer.size(), soak.generate().size());

  // The reproducer still violates on replay...
  const SoakReport again = soak.replay(report.reproducer);
  EXPECT_FALSE(again.ok);
  EXPECT_NE(again.violation.find("synthetic"), std::string::npos);

  // ...and is 1-minimal: removing ANY single op makes the violation vanish.
  for (std::size_t drop = 0; drop < report.reproducer.size(); ++drop) {
    std::vector<SoakOp> reduced = report.reproducer;
    reduced.erase(reduced.begin() + static_cast<std::ptrdiff_t>(drop));
    EXPECT_TRUE(soak.replay(reduced).ok)
        << "reproducer not minimal: op " << drop << " is removable";
  }

  // Without the hook the reproducer is an ordinary legal script: the
  // violation lives in the injected check, not in leaked fabric state.
  SoakConfig clean = small_config();
  ChaosSoak clean_soak(tree, clean);
  EXPECT_TRUE(clean_soak.replay(report.reproducer).ok);
}

TEST(ChaosSoak, ShrinkDisabledReportsViolationWithoutReproducer) {
  const FatTree tree = FatTree::symmetric(3, 4);
  SoakConfig config = small_config();
  config.shrink = false;
  config.extra_check = [](const FabricManager& fabric) {
    if (fabric.stats().grants > 0) {
      return Status::error("synthetic: something was granted");
    }
    return Status();
  };
  const SoakReport report = ChaosSoak(tree, config).run();
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.reproducer.empty());
  EXPECT_EQ(report.shrink_runs, 0u);
}

TEST(ChaosSoak, ScriptRoundTripsExactly) {
  const FatTreeParams params = FatTreeParams::symmetric(3, 4);
  const FatTree tree = FatTree::symmetric(3, 4);
  SoakConfig config = small_config();
  config.scheduler = "levelwise-balanced-rr";
  config.retry = RetryPolicy::backoff(2, 1.5, 11, 6, 0.25);
  config.max_pending = 99;
  const std::vector<SoakOp> ops = ChaosSoak(tree, config).generate();

  const std::string text = write_soak_script(params, config, ops);
  const auto parsed = parse_soak_script(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const SoakScript& script = parsed.value();

  EXPECT_EQ(script.tree.levels, params.levels);
  EXPECT_EQ(script.tree.child_arity, params.child_arity);
  EXPECT_EQ(script.tree.parent_arity, params.parent_arity);
  EXPECT_EQ(script.config.scheduler, config.scheduler);
  EXPECT_EQ(script.config.seed, config.seed);
  EXPECT_EQ(script.config.epoch_ops, config.epoch_ops);
  EXPECT_EQ(script.config.max_pending, config.max_pending);
  // The retry policy round-trips field-wise (the spec() grammar cannot
  // express an arbitrary backoff cap, which is why the script serializes
  // the fields explicitly).
  EXPECT_EQ(script.config.retry.kind, config.retry.kind);
  EXPECT_EQ(script.config.retry.base_delay, config.retry.base_delay);
  EXPECT_DOUBLE_EQ(script.config.retry.multiplier, config.retry.multiplier);
  EXPECT_EQ(script.config.retry.max_delay, config.retry.max_delay);
  EXPECT_EQ(script.config.retry.max_retries, config.retry.max_retries);
  EXPECT_DOUBLE_EQ(script.config.retry.jitter, config.retry.jitter);
  EXPECT_EQ(script.ops, ops);

  // And the parsed script replays to the same verdict as the original.
  auto rebuilt_result = FatTree::create(script.tree);
  ASSERT_TRUE(rebuilt_result.ok());
  const FatTree rebuilt = std::move(rebuilt_result).value();
  SoakReport from_script = ChaosSoak(rebuilt, script.config).replay(script.ops);
  SoakReport direct = ChaosSoak(tree, config).replay(ops);
  EXPECT_EQ(from_script.ok, direct.ok);
  EXPECT_EQ(from_script.executed, direct.executed);
  EXPECT_EQ(from_script.stats.grants, direct.stats.grants);
}

TEST(ChaosSoak, ParseDiagnosesMalformedScripts) {
  const auto expect_error = [](const std::string& text,
                               const std::string& needle) {
    const auto parsed = parse_soak_script(text);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << text;
    EXPECT_NE(parsed.status().message().find(needle), std::string::npos)
        << parsed.status().message();
  };
  expect_error("", "missing 'tree' line");
  expect_error("op t=1 kind=open count=2 draw=3\n", "tree");
  expect_error("tree levels=3 m=4\n", "w");
  expect_error("tree levels=3 m=4 w=4\nop t=1 kind=warp\n", "kind");
  expect_error("tree levels=3 m=4 w=4\nop t=1 kind=open count=x draw=0\n",
               "count");
  // A 32-bit field must not narrow: retry_max = 2^32 + 1 is not 1.
  expect_error(
      "tree levels=3 m=4 w=4\n"
      "soak scheduler=levelwise seed=1 epoch=8 max_pending=4 retry=fixed "
      "retry_base=1 retry_mult=1 retry_cap=1 retry_max=4294967297 "
      "retry_jitter=0\n",
      "line 2: key 'retry_max'");
  // std::stoull reads "-1" as 2^64 - 1; a sign is not an unsigned integer.
  expect_error("tree levels=3 m=4 w=4\nop t=-1 kind=open count=2 draw=3\n",
               "line 2: key 't'");
  expect_error("tree levels=3 m=4 w=4\nop t=+1 kind=open count=2 draw=3\n",
               "line 2: key 't'");
  // Every key must be one the keyword (or the op kind) consumes, and none
  // may repeat: a typo or a second value must not be silently dropped or win.
  expect_error("tree levels=2 m=4 w=4 bogus=7\n", "line 1: unknown key 'bogus'");
  expect_error("tree levels=2 m=4 w=4 m=8\n", "line 1: repeated key 'm'");
  expect_error(
      "tree levels=2 m=4 w=4\nop t=1 kind=open count=2 draw=3 port=1\n",
      "line 2: unknown key 'port'");
  // Op times must be non-decreasing — the DES cannot schedule into the past.
  expect_error(
      "tree levels=3 m=4 w=4\n"
      "op t=5 kind=open count=2 draw=1\n"
      "op t=3 kind=open count=2 draw=2\n",
      "non-decreasing");
}

TEST(ChaosSoak, GeneratedScriptTimesAreNonDecreasing) {
  const FatTree tree = FatTree::symmetric(2, 8);
  SoakConfig config = small_config();
  config.ops = 1000;
  const std::vector<SoakOp> script = ChaosSoak(tree, config).generate();
  ASSERT_EQ(script.size(), 1000u);
  for (std::size_t i = 1; i < script.size(); ++i) {
    EXPECT_GE(script[i].time, script[i - 1].time) << "op " << i;
  }
}

TEST(ChaosSoak, RepairOpsTargetActuallyDownCables) {
  // The generator models the failed set so repairs are drawn from cables
  // that are really down at that point in the script: replaying the FULL
  // script must skip no repair (a skipped repair would mean the model and
  // the live fabric disagreed). Opens/closes may legitimately skip
  // (empty-fabric closes), so count repair ops against skips directly by
  // replaying a fail/repair-only projection of the script.
  const FatTree tree = FatTree::symmetric(3, 4);
  SoakConfig config = small_config();
  config.ops = 600;
  ChaosSoak soak(tree, config);
  std::vector<SoakOp> churn_only;
  for (const SoakOp& op : soak.generate()) {
    if (op.kind == SoakOpKind::kFail || op.kind == SoakOpKind::kRepair) {
      churn_only.push_back(op);
    }
  }
  ASSERT_FALSE(churn_only.empty());
  const SoakReport report = soak.replay(churn_only);
  EXPECT_TRUE(report.ok) << report.violation;
  std::uint64_t repairs = 0;
  for (const SoakOp& op : churn_only) {
    repairs += op.kind == SoakOpKind::kRepair ? 1u : 0u;
  }
  EXPECT_EQ(report.stats.repair_events, repairs);
}

}  // namespace
}  // namespace ftsched
