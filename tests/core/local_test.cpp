#include "core/local_scheduler.hpp"

#include <gtest/gtest.h>

#include "core/levelwise_scheduler.hpp"
#include "core/verifier.hpp"
#include "workload/patterns.hpp"

namespace ftsched {
namespace {

TEST(Local, PaperFigure4GreedyLosesOneRequest) {
  // Fig. 4(a): greedy local routing sends both requests up through port 0;
  // they collide on Dlink(0, 8, 0) and only the first survives.
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  LocalAdaptiveScheduler scheduler;  // first-fit = greedy
  const std::vector<Request> batch{
      {tree.node_at(0, 0), tree.node_at(8, 0)},
      {tree.node_at(1, 0), tree.node_at(8, 1)}};
  const ScheduleResult result = scheduler.schedule(tree, batch, state);
  ASSERT_TRUE(result.outcomes[0].granted);
  ASSERT_FALSE(result.outcomes[1].granted);
  EXPECT_EQ(result.outcomes[1].reason, RejectReason::kDownConflict);
  // And the level-wise scheduler grants both on the same input (Fig. 4(b)) —
  // this pair of assertions IS the paper's motivating example.
  LinkState fresh(tree);
  LevelwiseScheduler global;
  const ScheduleResult global_result = global.schedule(tree, batch, fresh);
  EXPECT_TRUE(global_result.outcomes[0].granted);
  EXPECT_TRUE(global_result.outcomes[1].granted);
}

TEST(Local, ReleaseOnFailReturnsChannels) {
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  LocalAdaptiveScheduler scheduler;
  const std::vector<Request> batch{
      {tree.node_at(0, 0), tree.node_at(8, 0)},
      {tree.node_at(1, 0), tree.node_at(8, 1)}};
  const ScheduleResult result = scheduler.schedule(tree, batch, state);
  ASSERT_FALSE(result.outcomes[1].granted);
  // Only the granted circuit's channels remain: 2 levels × (up+down).
  EXPECT_EQ(state.total_occupied(), 4u);
  EXPECT_TRUE(verify_schedule(tree, batch, result, &state).ok());
}

TEST(Local, HoldOnFailKeepsPartialChannels) {
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  LocalOptions options;
  options.release_on_fail = false;
  LocalAdaptiveScheduler scheduler(options);
  const std::vector<Request> batch{
      {tree.node_at(0, 0), tree.node_at(8, 0)},
      {tree.node_at(1, 0), tree.node_at(8, 1)}};
  const ScheduleResult result = scheduler.schedule(tree, batch, state);
  ASSERT_FALSE(result.outcomes[1].granted);
  // Granted circuit (4 channels) + the loser's held partial path: its two
  // ascent up-channels and one down-channel claimed before the conflict.
  EXPECT_GT(state.total_occupied(), 4u);
  VerifyOptions verify_options;
  verify_options.allow_residual_occupancy = true;
  EXPECT_TRUE(
      verify_schedule(tree, batch, result, &state, verify_options).ok());
}

TEST(Local, NoLocalUplinkFailure) {
  const FatTree tree = FatTree::symmetric(2, 4);
  LinkState state(tree);
  // Exhaust every up port of leaf switch 0.
  for (std::uint32_t p = 0; p < 4; ++p) state.set_ulink(0, 0, p, false);
  LocalAdaptiveScheduler scheduler;
  const Request request{0, 15};
  const ScheduleResult result = scheduler.schedule(tree, {&request, 1}, state);
  ASSERT_FALSE(result.outcomes[0].granted);
  EXPECT_EQ(result.outcomes[0].reason, RejectReason::kNoLocalUplink);
}

TEST(Local, GreedyIgnoresDestinationState) {
  // The defining blindness: destination's down port 0 is occupied, a free
  // alternative exists, and greedy still walks into the conflict.
  const FatTree tree = FatTree::symmetric(2, 4);
  LinkState state(tree);
  state.set_dlink(0, 3, 0, false);
  LocalAdaptiveScheduler scheduler;
  const Request request{0, 12};  // leaf 0 -> leaf 3
  const ScheduleResult result = scheduler.schedule(tree, {&request, 1}, state);
  ASSERT_FALSE(result.outcomes[0].granted);
  EXPECT_EQ(result.outcomes[0].reason, RejectReason::kDownConflict);
  // Whereas the global AND finds port 1 immediately.
  LinkState fresh(tree);
  fresh.set_dlink(0, 3, 0, false);
  LevelwiseScheduler global;
  EXPECT_TRUE(global.schedule(tree, {&request, 1}, fresh).outcomes[0].granted);
}

TEST(Local, IntraSwitchAlwaysGranted) {
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  // Even with the whole fabric saturated, intra-switch requests pass.
  for (std::uint32_t h = 0; h < 2; ++h) {
    for (std::uint64_t sw = 0; sw < 16; ++sw) {
      for (std::uint32_t p = 0; p < 4; ++p) {
        state.set_ulink(h, sw, p, false);
        state.set_dlink(h, sw, p, false);
      }
    }
  }
  LocalAdaptiveScheduler scheduler;
  const Request request{0, 1};
  const ScheduleResult result = scheduler.schedule(tree, {&request, 1}, state);
  EXPECT_TRUE(result.outcomes[0].granted);
}

TEST(Local, RandomPolicyVerifiesOnPermutations) {
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  Xoshiro256ss rng(3);
  LocalOptions options;
  options.policy = PortPolicy::kRandom;
  LocalAdaptiveScheduler scheduler(options);
  for (int rep = 0; rep < 10; ++rep) {
    const auto batch = random_permutation(tree.node_count(), rng);
    state.reset();
    const ScheduleResult result = scheduler.schedule(tree, batch, state);
    ASSERT_TRUE(verify_schedule(tree, batch, result, &state).ok());
  }
}

TEST(Local, RandomBeatsGreedyOnAverage) {
  // Greedy local funnels everyone through port 0 first, so random local
  // spreads load and schedules more — a known property the paper's
  // "greedy or random" phrasing glosses over; we pin it down.
  const FatTree tree = FatTree::symmetric(3, 8);
  LinkState state(tree);
  Xoshiro256ss rng(4);
  LocalAdaptiveScheduler greedy;
  LocalOptions options;
  options.policy = PortPolicy::kRandom;
  LocalAdaptiveScheduler random_local(options);
  double greedy_sum = 0;
  double random_sum = 0;
  for (int rep = 0; rep < 20; ++rep) {
    const auto batch = random_permutation(tree.node_count(), rng);
    state.reset();
    greedy_sum += greedy.schedule(tree, batch, state).schedulability_ratio();
    state.reset();
    random_sum +=
        random_local.schedule(tree, batch, state).schedulability_ratio();
  }
  EXPECT_GT(random_sum, greedy_sum);
}

TEST(Local, FailLevelIsTopDownFirstConflict) {
  // Descent is checked from the ancestor downward; with conflicts planted at
  // levels 1 and 0 the reported fail level must be 1.
  const FatTree tree = FatTree::symmetric(3, 4);
  LinkState state(tree);
  const std::uint64_t dst_leaf = tree.leaf_switch(63).index;
  // Greedy from leaf 0 will pick P = (0, 0). Occupy both forced downs.
  const std::uint64_t delta1 = tree.ascend(0, dst_leaf, 0);
  state.set_dlink(1, delta1, 0, false);
  state.set_dlink(0, dst_leaf, 0, false);
  LocalAdaptiveScheduler scheduler;
  const Request request{0, 63};
  const ScheduleResult result = scheduler.schedule(tree, {&request, 1}, state);
  ASSERT_FALSE(result.outcomes[0].granted);
  EXPECT_EQ(result.outcomes[0].fail_level, 1u);
}

TEST(Local, NameReflectsConfiguration) {
  EXPECT_EQ(LocalAdaptiveScheduler().name(), "local-first-fit");
  LocalOptions options;
  options.policy = PortPolicy::kRandom;
  options.release_on_fail = false;
  EXPECT_EQ(LocalAdaptiveScheduler(options).name(), "local-random-hold");
}

TEST(LocalDeath, RejectsBalancedPolicies) {
  // A balanced weight counts both sides of a column; the local scheduler
  // sees only the source side, so it takes the oblivious policies alone.
  for (const PortPolicy policy :
       {PortPolicy::kBalanced, PortPolicy::kBalancedRR,
        PortPolicy::kBalancedRandom}) {
    LocalOptions options;
    options.policy = policy;
    EXPECT_DEATH(LocalAdaptiveScheduler{options}, "precondition")
        << to_string(policy);
  }
}

}  // namespace
}  // namespace ftsched
