#include "obs/sched_probe.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/request.hpp"
#include "linkstate/link_state.hpp"
#include "topology/fat_tree.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workload/patterns.hpp"

namespace ftsched {
namespace {

std::uint64_t sum(const std::vector<std::uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

TEST(SchedulerProbe, HooksAccumulate) {
  obs::SchedulerProbe probe;
  probe.on_batch_begin(4);
  probe.on_grant(2);
  probe.on_grant(2);
  probe.on_reject(1, 1);
  probe.on_reject(0, 4);
  probe.on_leaf_claim_fail();
  probe.on_and_popcount(0, 3);
  probe.on_and_popcount(0, 3);
  probe.on_port_pick(1, 7);
  probe.on_rollback(5);

  EXPECT_EQ(probe.batches(), 1u);
  EXPECT_EQ(probe.requests(), 4u);
  EXPECT_EQ(probe.grants(), 2u);
  EXPECT_EQ(probe.rejects(), 2u);
  EXPECT_EQ(probe.leaf_claim_failures(), 1u);
  EXPECT_EQ(probe.rollbacks(), 1u);
  EXPECT_EQ(probe.rollback_entries(), 5u);
  ASSERT_EQ(probe.reject_by_level().size(), 2u);
  EXPECT_EQ(probe.reject_by_level()[0], 1u);
  EXPECT_EQ(probe.reject_by_level()[1], 1u);
  ASSERT_EQ(probe.grant_by_ancestor().size(), 3u);
  EXPECT_EQ(probe.grant_by_ancestor()[2], 2u);
  ASSERT_GE(probe.popcount_by_level().size(), 1u);
  EXPECT_EQ(probe.popcount_by_level()[0][3], 2u);
  ASSERT_GE(probe.pick_by_level().size(), 2u);
  EXPECT_EQ(probe.pick_by_level()[1][7], 1u);

  probe.reset();
  EXPECT_EQ(probe.requests(), 0u);
  EXPECT_TRUE(probe.reject_by_level().empty());
}

TEST(SchedulerProbe, WriteJsonIsValid) {
  obs::SchedulerProbe probe;
  probe.on_batch_begin(2);
  probe.on_grant(1);
  probe.on_reject(0, 1);
  probe.on_and_popcount(0, 2);
  probe.on_port_pick(0, 1);
  std::ostringstream os;
  probe.write_json(os, reject_reason_name);
  EXPECT_EQ(parse_json(os.str()).message(), "") << os.str();
  EXPECT_NE(os.str().find("\"no-common-port\":1"), std::string::npos);
}

TEST(SchedulerProbe, ExportMetricsNamesAndJsonl) {
  obs::SchedulerProbe probe;
  probe.on_batch_begin(3);
  probe.on_grant(1);
  probe.on_reject(1, 1);
  probe.on_reject(0, 4);
  probe.on_and_popcount(0, 2);
  probe.on_port_pick(0, 3);

  obs::MetricsRegistry registry;
  probe.export_metrics(registry, reject_reason_name);
  std::ostringstream os;
  registry.write_jsonl(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"metric\":\"sched.requests\""), std::string::npos);
  EXPECT_NE(text.find("\"metric\":\"sched.reject.level1\""),
            std::string::npos);
  EXPECT_NE(text.find("\"metric\":\"sched.reject.reason.no-common-port\""),
            std::string::npos);
  EXPECT_NE(text.find("\"metric\":\"sched.reject.reason.leaf-busy\""),
            std::string::npos);
  EXPECT_NE(text.find("\"metric\":\"sched.and_popcount.level0\""),
            std::string::npos);
  EXPECT_NE(text.find("\"metric\":\"sched.pick.level0.port3\""),
            std::string::npos);
  // Every line parses.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_EQ(parse_json(line).message(), "") << line;
  }
}

/// The acceptance invariant: a probe never steers. Running the identical
/// batch with and without a probe attached must produce byte-identical
/// ScheduleResults for every registered scheduler, and the probe's per-level
/// rejection histogram must sum to the rejected-request count.
TEST(SchedulerProbe, AttachedProbeDoesNotChangeResults) {
  struct Case {
    std::uint32_t levels;
    std::uint32_t arity;
  };
  for (const std::string& name : scheduler_names()) {
    for (const Case& c : {Case{2, 8}, Case{3, 4}}) {
      if (name == "matching2" && c.levels != 2) continue;  // 2-level only
      const FatTree tree = FatTree::symmetric(c.levels, c.arity);

      Xoshiro256ss rng(0xfeedULL);
      const std::vector<Request> batch = generate_pattern(
          tree, TrafficPattern::kRandomPermutation, rng, WorkloadOptions{});

      auto bare = make_scheduler(name, 99);
      auto probed = make_scheduler(name, 99);
      ASSERT_TRUE(bare.ok());
      ASSERT_TRUE(probed.ok());
      obs::SchedulerProbe probe;
      probed.value()->set_probe(&probe);

      LinkState state_a(tree);
      LinkState state_b(tree);
      bare.value()->reseed(7);
      probed.value()->reseed(7);
      const ScheduleResult a = bare.value()->schedule(tree, batch, state_a);
      const ScheduleResult b =
          probed.value()->schedule(tree, batch, state_b);

      EXPECT_EQ(a, b) << name << " FT(" << c.levels << "," << c.arity << ")";
      EXPECT_EQ(probe.requests(), batch.size()) << name;
      EXPECT_EQ(probe.grants(), b.granted_count()) << name;
      EXPECT_EQ(probe.rejects(), b.outcomes.size() - b.granted_count())
          << name;
      // Per-level rejection histogram sums to the rejected-request count.
      EXPECT_EQ(sum(probe.reject_by_level()), probe.rejects()) << name;
      EXPECT_EQ(sum(probe.reject_by_reason()), probe.rejects()) << name;
      EXPECT_EQ(sum(probe.grant_by_ancestor()), probe.grants()) << name;
    }
  }
}

}  // namespace
}  // namespace ftsched
