#include "core/turnback_scheduler.hpp"

#include <gtest/gtest.h>

#include "core/local_scheduler.hpp"
#include "core/verifier.hpp"
#include "workload/patterns.hpp"

namespace ftsched {
namespace {

TEST(Turnback, RecoversFromPaperFigure4Conflict) {
  // The scenario that kills the plain local scheduler: both requests greedily
  // pick port 0 and collide on the destination side. A single turn-back
  // finds the free alternative.
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  TurnbackScheduler scheduler;
  const std::vector<Request> batch{
      {tree.node_at(0, 0), tree.node_at(8, 0)},
      {tree.node_at(1, 0), tree.node_at(8, 1)}};
  const ScheduleResult result = scheduler.schedule(tree, batch, state);
  EXPECT_TRUE(result.outcomes[0].granted);
  EXPECT_TRUE(result.outcomes[1].granted);
  EXPECT_TRUE(verify_schedule(tree, batch, result, &state).ok());
}

TEST(Turnback, SingleProbeEqualsPlainLocal) {
  // max_probes = 1 disables turn-backs: outcomes must match the greedy
  // local scheduler exactly, request for request.
  const FatTree tree = FatTree::symmetric(3, 4);
  Xoshiro256ss rng(5);
  TurnbackOptions options;
  options.max_probes = 1;
  TurnbackScheduler one_probe(options);
  LocalAdaptiveScheduler local;
  for (int rep = 0; rep < 10; ++rep) {
    const auto batch = random_permutation(tree.node_count(), rng);
    LinkState a(tree);
    LinkState b(tree);
    const ScheduleResult ra = one_probe.schedule(tree, batch, a);
    const ScheduleResult rb = local.schedule(tree, batch, b);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(ra.outcomes[i].granted, rb.outcomes[i].granted) << i;
      if (ra.outcomes[i].granted) {
        EXPECT_EQ(ra.outcomes[i].path, rb.outcomes[i].path) << i;
      }
    }
    EXPECT_TRUE(a == b);
  }
}

TEST(Turnback, MoreProbesNeverScheduleFewer) {
  const FatTree tree = FatTree::symmetric(3, 8);
  Xoshiro256ss rng(6);
  for (int rep = 0; rep < 5; ++rep) {
    const auto batch = random_permutation(tree.node_count(), rng);
    std::uint64_t prev = 0;
    for (std::uint32_t probes : {1u, 2u, 8u, 64u}) {
      TurnbackOptions options;
      options.max_probes = probes;
      TurnbackScheduler scheduler(options);
      LinkState state(tree);
      const std::uint64_t granted =
          scheduler.schedule(tree, batch, state).granted_count();
      EXPECT_GE(granted, prev) << "probes=" << probes;
      prev = granted;
    }
  }
}

TEST(Turnback, UnlimitedProbesFindIsolatedFreePath) {
  // Plant a state where exactly one port string works; a large budget must
  // find it even though greedy order explores the blocked choices first.
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  const std::uint64_t src_leaf = tree.leaf_switch(0).index;
  const std::uint64_t dst_leaf = tree.leaf_switch(63).index;
  // Block everything except P = (3, 3).
  for (std::uint32_t p0 = 0; p0 < 4; ++p0) {
    for (std::uint32_t p1 = 0; p1 < 4; ++p1) {
      if (p0 == 3 && p1 == 3) continue;
      const std::uint64_t delta1 = tree.ascend(0, dst_leaf, p0);
      if (state.dlink(1, delta1, p1)) state.set_dlink(1, delta1, p1, false);
    }
  }
  TurnbackOptions options;
  options.max_probes = 1000;
  TurnbackScheduler scheduler(options);
  const Request request{0, 63};
  const ScheduleResult result = scheduler.schedule(tree, {&request, 1}, state);
  ASSERT_TRUE(result.outcomes[0].granted);
  EXPECT_EQ(result.outcomes[0].path.ports, (DigitVec{3, 3}));
  (void)src_leaf;
}

TEST(Turnback, FailureLeavesNoResidue) {
  const FatTree tree = FatTree::symmetric(2, 4);
  LinkState state(tree);
  // Destination leaf 3 completely unreachable on the down side.
  for (std::uint32_t p = 0; p < 4; ++p) state.set_dlink(0, 3, p, false);
  const std::uint64_t before = state.total_occupied();
  TurnbackScheduler scheduler;
  const Request request{0, 12};
  const ScheduleResult result = scheduler.schedule(tree, {&request, 1}, state);
  EXPECT_FALSE(result.outcomes[0].granted);
  EXPECT_EQ(state.total_occupied(), before);
}

TEST(Turnback, BeatsLocalOnPermutations) {
  const FatTree tree = FatTree::symmetric(3, 8);
  Xoshiro256ss rng(7);
  TurnbackScheduler turnback;  // 8 probes
  LocalAdaptiveScheduler local;
  std::uint64_t tb_total = 0;
  std::uint64_t local_total = 0;
  for (int rep = 0; rep < 10; ++rep) {
    const auto batch = random_permutation(tree.node_count(), rng);
    LinkState a(tree);
    LinkState b(tree);
    tb_total += turnback.schedule(tree, batch, a).granted_count();
    local_total += local.schedule(tree, batch, b).granted_count();
  }
  EXPECT_GT(tb_total, local_total);
}

TEST(Turnback, VerifiesAcrossPatterns) {
  const FatTree tree = FatTree::symmetric(3, 4);
  Xoshiro256ss rng(8);
  TurnbackScheduler scheduler;
  for (TrafficPattern pattern :
       {TrafficPattern::kDigitReversal, TrafficPattern::kComplement,
        TrafficPattern::kShift}) {
    LinkState state(tree);
    const auto batch = generate_pattern(tree, pattern, rng);
    const ScheduleResult result = scheduler.schedule(tree, batch, state);
    EXPECT_TRUE(verify_schedule(tree, batch, result, &state).ok())
        << to_string(pattern);
  }
}

}  // namespace
}  // namespace ftsched
