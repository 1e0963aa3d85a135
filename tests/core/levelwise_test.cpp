#include "core/levelwise_scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/verifier.hpp"
#include "workload/patterns.hpp"

namespace ftsched {
namespace {

TEST(Levelwise, PaperFigure8WorkedTrace) {
  // Paper §4: FT(4,4), request node 3 -> node 95. Source switch (0,"000"),
  // destination switch (0,"113") = 23, ancestor level H = 3. With
  // Ulink(1, σ1="000")[0] pre-occupied the trace selects P = (0, 1, 0).
  const FatTree tree = FatTree::symmetric(4, 4);
  LinkState state(tree);

  ASSERT_EQ(tree.leaf_switch(3).index, 0u);
  ASSERT_EQ(tree.leaf_switch(95).index, 23u);
  ASSERT_EQ(tree.common_ancestor_level(0, 23), 3u);

  // Step-2 premise: port 0 at level 1 is not available on the source side.
  const std::uint64_t sigma1 = tree.ascend(0, 0, 0);
  state.set_ulink(1, sigma1, 0, false);

  LevelwiseScheduler scheduler;
  const Request request{3, 95};
  const ScheduleResult result = scheduler.schedule(tree, {&request, 1}, state);

  ASSERT_TRUE(result.outcomes[0].granted);
  EXPECT_EQ(result.outcomes[0].path.ports, (DigitVec{0, 1, 0}));
  EXPECT_EQ(to_string(result.outcomes[0].path),
            "node 3 -> node 95 via P=(0,1,0)");
}

TEST(Levelwise, GrantsTrivialIntraSwitchRequest) {
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  LevelwiseScheduler scheduler;
  const Request request{0, 3};  // same leaf switch
  const ScheduleResult result = scheduler.schedule(tree, {&request, 1}, state);
  ASSERT_TRUE(result.outcomes[0].granted);
  EXPECT_EQ(result.outcomes[0].path.ancestor_level, 0u);
  EXPECT_EQ(state.total_occupied(), 0u);  // no inter-switch channels used
}

TEST(Levelwise, SelfRequestGranted) {
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  LevelwiseScheduler scheduler;
  const Request request{5, 5};
  const ScheduleResult result = scheduler.schedule(tree, {&request, 1}, state);
  EXPECT_TRUE(result.outcomes[0].granted);
}

TEST(Levelwise, RejectsWhenAndRowEmpty) {
  const FatTree tree = FatTree::symmetric(2, 4);
  LinkState state(tree);
  // Source leaf 0, destination leaf 3: make their availability disjoint.
  state.set_ulink(0, 0, 0, false);
  state.set_ulink(0, 0, 1, false);
  state.set_dlink(0, 3, 2, false);
  state.set_dlink(0, 3, 3, false);
  LevelwiseScheduler scheduler;
  const Request request{0, 12};  // leaf 0 -> leaf 3
  const ScheduleResult result = scheduler.schedule(tree, {&request, 1}, state);
  ASSERT_FALSE(result.outcomes[0].granted);
  EXPECT_EQ(result.outcomes[0].reason, RejectReason::kNoCommonPort);
  EXPECT_EQ(result.outcomes[0].fail_level, 0u);
}

TEST(Levelwise, ReleaseRejectedReturnsPartialAllocations) {
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  // Request 0 -> 63 (H=2). Block ALL level-1 destination-side down channels
  // so the request allocates level 0 first and then fails at level 1.
  const std::uint64_t dst_leaf = tree.leaf_switch(63).index;
  for (std::uint32_t port = 0; port < 4; ++port) {
    // δ_1 depends on P_0; block every possible δ_1 row entirely.
    for (std::uint32_t p0 = 0; p0 < 4; ++p0) {
      DigitVec ports{p0};
      const std::uint64_t delta1 = tree.side_switch(dst_leaf, 1, ports);
      if (state.dlink(1, delta1, port)) state.set_dlink(1, delta1, port, false);
    }
  }
  const std::uint64_t occupied_before = state.total_occupied();

  LevelwiseScheduler scheduler;  // release_rejected defaults to true
  const Request request{0, 63};
  const ScheduleResult result = scheduler.schedule(tree, {&request, 1}, state);
  ASSERT_FALSE(result.outcomes[0].granted);
  EXPECT_EQ(result.outcomes[0].fail_level, 1u);
  // The level-0 allocation must have been rolled back.
  EXPECT_EQ(state.total_occupied(), occupied_before);
}

TEST(Levelwise, NoReleaseModeKeepsPartialAllocations) {
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  const std::uint64_t dst_leaf = tree.leaf_switch(63).index;
  for (std::uint32_t port = 0; port < 4; ++port) {
    for (std::uint32_t p0 = 0; p0 < 4; ++p0) {
      DigitVec ports{p0};
      const std::uint64_t delta1 = tree.side_switch(dst_leaf, 1, ports);
      if (state.dlink(1, delta1, port)) state.set_dlink(1, delta1, port, false);
    }
  }
  const std::uint64_t occupied_before = state.total_occupied();

  LevelwiseOptions options;
  options.release_rejected = false;  // hardware-fidelity mode
  LevelwiseScheduler scheduler(options);
  const Request request{0, 63};
  const ScheduleResult result = scheduler.schedule(tree, {&request, 1}, state);
  ASSERT_FALSE(result.outcomes[0].granted);
  EXPECT_EQ(state.total_occupied(), occupied_before + 2);  // level-0 pair held
}

TEST(Levelwise, FirstFitPicksLowestCommonPort) {
  const FatTree tree = FatTree::symmetric(2, 8);
  LinkState state(tree);
  state.set_ulink(0, 0, 0, false);
  state.set_dlink(0, 5, 1, false);
  LevelwiseScheduler scheduler;
  const Request request{0, 45};  // leaf 0 -> leaf 5
  const ScheduleResult result = scheduler.schedule(tree, {&request, 1}, state);
  ASSERT_TRUE(result.outcomes[0].granted);
  EXPECT_EQ(result.outcomes[0].path.ports[0], 2u);
}

TEST(Levelwise, DuplicateDestinationRejectedAtLeaf) {
  const FatTree tree = FatTree::symmetric(2, 4);
  LinkState state(tree);
  LevelwiseScheduler scheduler;
  const std::vector<Request> batch{{0, 9}, {5, 9}};
  const ScheduleResult result = scheduler.schedule(tree, batch, state);
  EXPECT_TRUE(result.outcomes[0].granted);
  EXPECT_FALSE(result.outcomes[1].granted);
  EXPECT_EQ(result.outcomes[1].reason, RejectReason::kLeafBusy);
}

TEST(Levelwise, PaperFigure4BothRequestsGranted) {
  // Fig. 4(b): with global information the two requests aimed at leaf
  // switch 8 take distinct ports and BOTH succeed.
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  LevelwiseScheduler scheduler;
  const std::vector<Request> batch{
      {tree.node_at(0, 0), tree.node_at(8, 0)},   // SW(0,0) -> SW(0,8)
      {tree.node_at(1, 0), tree.node_at(8, 1)}};  // SW(0,1) -> SW(0,8)
  const ScheduleResult result = scheduler.schedule(tree, batch, state);
  ASSERT_TRUE(result.outcomes[0].granted);
  ASSERT_TRUE(result.outcomes[1].granted);
  // The conflict is on Dlink(0, 8, ·): the grants must use distinct P_0.
  EXPECT_NE(result.outcomes[0].path.ports[0], result.outcomes[1].path.ports[0]);
  EXPECT_TRUE(verify_schedule(tree, batch, result, &state).ok());
}

TEST(Levelwise, FullPermutationOnRearrangeableTwoLevelIsNearPerfect) {
  // A two-level FT(2,w) is rearrangeably non-blocking; first-fit is not an
  // exact edge coloring but must stay close to 100%.
  const FatTree tree = FatTree::symmetric(2, 8);
  LinkState state(tree);
  Xoshiro256ss rng(1);
  LevelwiseScheduler scheduler;
  double worst = 1.0;
  for (int rep = 0; rep < 20; ++rep) {
    const auto batch = random_permutation(tree.node_count(), rng);
    state.reset();
    const ScheduleResult result = scheduler.schedule(tree, batch, state);
    worst = std::min(worst, result.schedulability_ratio());
    ASSERT_TRUE(verify_schedule(tree, batch, result, &state).ok());
  }
  EXPECT_GT(worst, 0.85);
}

TEST(Levelwise, RequestMajorMatchesLevelMajorOnConflictFreeBatch) {
  // When no rejection occurs the two orders must produce identical paths
  // (first-fit is deterministic and level state is consumed identically).
  const FatTree tree = FatTree::symmetric(3, 4);
  const std::vector<Request> batch{{0, 20}, {4, 40}, {8, 60}};
  LinkState a(tree);
  LinkState b(tree);
  LevelwiseScheduler level_major;
  LevelwiseOptions options;
  options.order = LevelwiseOptions::Order::kRequestMajor;
  LevelwiseScheduler request_major(options);
  const ScheduleResult ra = level_major.schedule(tree, batch, a);
  const ScheduleResult rb = request_major.schedule(tree, batch, b);
  ASSERT_EQ(ra.outcomes.size(), rb.outcomes.size());
  for (std::size_t i = 0; i < ra.outcomes.size(); ++i) {
    ASSERT_TRUE(ra.outcomes[i].granted);
    ASSERT_TRUE(rb.outcomes[i].granted);
    EXPECT_EQ(ra.outcomes[i].path, rb.outcomes[i].path);
  }
  EXPECT_TRUE(a == b);
}

TEST(Levelwise, RandomPolicyStillVerifies) {
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  Xoshiro256ss rng(7);
  LevelwiseOptions options;
  options.policy = PortPolicy::kRandom;
  LevelwiseScheduler scheduler(options);
  const auto batch = random_permutation(tree.node_count(), rng);
  const ScheduleResult result = scheduler.schedule(tree, batch, state);
  EXPECT_TRUE(verify_schedule(tree, batch, result, &state).ok());
  EXPECT_GT(result.schedulability_ratio(), 0.5);
}

TEST(Levelwise, RoundRobinPolicyStillVerifies) {
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  Xoshiro256ss rng(8);
  LevelwiseOptions options;
  options.policy = PortPolicy::kRoundRobin;
  LevelwiseScheduler scheduler(options);
  const auto batch = random_permutation(tree.node_count(), rng);
  const ScheduleResult result = scheduler.schedule(tree, batch, state);
  EXPECT_TRUE(verify_schedule(tree, batch, result, &state).ok());
  EXPECT_GT(result.schedulability_ratio(), 0.5);
}

TEST(Levelwise, DeterministicAcrossRuns) {
  const FatTree tree = FatTree::symmetric(3, 4);
  Xoshiro256ss rng(9);
  const auto batch = random_permutation(tree.node_count(), rng);
  LinkState a(tree);
  LinkState b(tree);
  LevelwiseScheduler s1;
  LevelwiseScheduler s2;
  const ScheduleResult ra = s1.schedule(tree, batch, a);
  const ScheduleResult rb = s2.schedule(tree, batch, b);
  for (std::size_t i = 0; i < ra.outcomes.size(); ++i) {
    EXPECT_EQ(ra.outcomes[i].granted, rb.outcomes[i].granted);
    EXPECT_EQ(ra.outcomes[i].path, rb.outcomes[i].path);
  }
}

TEST(Levelwise, NameReflectsConfiguration) {
  EXPECT_EQ(LevelwiseScheduler().name(), "levelwise-first-fit");
  LevelwiseOptions options;
  options.policy = PortPolicy::kRandom;
  options.order = LevelwiseOptions::Order::kRequestMajor;
  EXPECT_EQ(LevelwiseScheduler(options).name(), "levelwise-random-reqmajor");
}

TEST(Levelwise, EmptyBatch) {
  const FatTree tree = FatTree::symmetric(2, 4);
  LinkState state(tree);
  LevelwiseScheduler scheduler;
  const ScheduleResult result = scheduler.schedule(tree, {}, state);
  EXPECT_TRUE(result.outcomes.empty());
  EXPECT_EQ(result.schedulability_ratio(), 1.0);
}

TEST(LevelwiseWordEdges, BalancedPoliciesVerifyOnFaultedFabric) {
  // Widths 63/64/65 straddle the one-word/two-word row boundary, where a
  // row scan would mishandle the spare high bits. With cables pre-failed
  // the rows also carry fault-forced busy bits, so the weighted argmax runs
  // over exactly the residual fabric. Every grant must verify against the
  // pre-batch state, and the column counters must still audit clean.
  for (std::uint32_t w : {63u, 64u, 65u}) {
    const FatTree tree = FatTree::symmetric(2, w);
    for (PortPolicy policy :
         {PortPolicy::kBalanced, PortPolicy::kBalancedRR,
          PortPolicy::kBalancedRandom}) {
      LevelwiseOptions options;
      options.policy = policy;
      options.seed = 5;
      LevelwiseScheduler scheduler(options);
      LinkState state(tree);
      // Damage concentrated on column 0 plus the top ports of both word
      // halves: the balanced weights differ per column.
      for (std::uint64_t sw = 0; sw < 5; ++sw) {
        state.fail_cable(0, sw, 0);
      }
      state.fail_cable(0, 6, w - 1);
      state.fail_cable(0, 7, w / 2);
      const LinkState before = state;
      Xoshiro256ss rng(13);
      const auto batch = random_permutation(tree.node_count(), rng);
      const ScheduleResult result = scheduler.schedule(tree, batch, state);

      const std::string where = "w=" + std::to_string(w) + " policy=" +
                                std::string(to_string(policy));
      const VerifyReport report =
          ScheduleVerifier(tree).verify(batch, result, &state, &before);
      EXPECT_TRUE(report.ok()) << where << ": " << report.first();
      EXPECT_TRUE(state.audit().ok()) << where;
      EXPECT_GT(report.granted, 0u) << where;
    }
  }
}

TEST(RoundRobinPin, PickSequencePinned) {
  // The rr_hint_ update rule — advance to (port + 1) mod w after a
  // successful pick, leave untouched on failure. This pins the granted port
  // digits of a full FT(2,4) permutation under levelwise-rr against a
  // committed literal; any drift in the rule fails.
  const FatTree tree = FatTree::symmetric(2, 4);
  Xoshiro256ss rng(9);
  const auto batch = random_permutation(tree.node_count(), rng);

  LevelwiseOptions options;
  options.policy = PortPolicy::kRoundRobin;
  LevelwiseScheduler scheduler(options);
  LinkState state(tree);
  const ScheduleResult result = scheduler.schedule(tree, batch, state);
  std::vector<DigitVec> sequence;
  for (const RequestOutcome& out : result.outcomes) {
    sequence.push_back(out.granted ? out.path.ports : DigitVec{});
  }

  const std::vector<DigitVec> expected = {
      // GENERATED: FT(2,4), levelwise-rr, seed-9 permutation ({} = request
      // rejected — the rejects are pinned too, a failed pick must not move
      // the hint). Regenerate by printing `sequence` if the workload
      // generator ever changes.
      {0}, {}, {1}, {2}, {2}, {3}, {0}, {1},
      {0}, {1}, {3}, {}, {0}, {2}, {3}, {},
  };
  EXPECT_EQ(sequence, expected);
}

}  // namespace
}  // namespace ftsched
