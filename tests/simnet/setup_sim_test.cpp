#include "simnet/setup_sim.hpp"

#include <gtest/gtest.h>

#include "core/local_scheduler.hpp"
#include "core/verifier.hpp"
#include "obs/link_telemetry.hpp"
#include "workload/patterns.hpp"

namespace ftsched {
namespace {

TEST(SetupSim, SingleRequestGrantsWithExpectedLatency) {
  const FatTree tree = FatTree::symmetric(3, 4);
  DistributedSetupSim sim(tree);
  LinkState state(tree);
  const Request request{0, 63};  // H = 2
  const SetupSimReport report = sim.run({&request, 1}, state);
  ASSERT_TRUE(report.result.outcomes[0].granted);
  ASSERT_EQ(report.setup_latency.size(), 1u);
  // 2 ascent cycles + 2 descent cycles.
  EXPECT_EQ(report.setup_latency[0], 4u);
  EXPECT_EQ(report.teardowns, 0u);
  EXPECT_TRUE(
      verify_schedule(tree, {&request, 1}, report.result, &state).ok());
}

TEST(SetupSim, IntraSwitchResolvedAtAdmission) {
  const FatTree tree = FatTree::symmetric(3, 4);
  DistributedSetupSim sim(tree);
  LinkState state(tree);
  const Request request{0, 2};
  const SetupSimReport report = sim.run({&request, 1}, state);
  EXPECT_TRUE(report.result.outcomes[0].granted);
  EXPECT_EQ(report.cycles, 0u);
}

TEST(SetupSim, SimultaneousConflictKillsExactlyOne) {
  // The Fig. 4 scenario under true simultaneity: both tokens race up port 0
  // and collide on the destination side; the loser tears down, the winner
  // completes.
  const FatTree tree = FatTree::symmetric(3, 4);
  DistributedSetupSim sim(tree);
  LinkState state(tree);
  const std::vector<Request> batch{
      {tree.node_at(0, 0), tree.node_at(8, 0)},
      {tree.node_at(1, 0), tree.node_at(8, 1)}};
  const SetupSimReport report = sim.run(batch, state);
  const std::uint64_t granted = report.result.granted_count();
  EXPECT_EQ(granted, 1u);
  EXPECT_EQ(report.teardowns, 1u);
  EXPECT_TRUE(verify_schedule(tree, batch, report.result, &state).ok());
}

TEST(SetupSim, PermutationBatchesVerify) {
  const FatTree tree = FatTree::symmetric(3, 4);
  DistributedSetupSim sim(tree);
  LinkState state(tree);
  Xoshiro256ss rng(31);
  for (int rep = 0; rep < 10; ++rep) {
    const auto batch = random_permutation(tree.node_count(), rng);
    const SetupSimReport report = sim.run(batch, state);
    ASSERT_TRUE(verify_schedule(tree, batch, report.result, &state).ok());
    ASSERT_TRUE(state.audit().ok());
    // Quiescence well within the structural bound.
    EXPECT_LT(report.cycles, 64u);
  }
}

TEST(SetupSim, TracksSequentialLocalSchedulerClosely) {
  // Simultaneity changes individual outcomes but the aggregate ratio must
  // stay in the same band as the sequential abstract baseline.
  const FatTree tree = FatTree::symmetric(3, 8);
  DistributedSetupSim sim(tree);
  LocalAdaptiveScheduler sequential;
  LinkState a(tree);
  LinkState b(tree);
  Xoshiro256ss rng(32);
  double sim_sum = 0;
  double seq_sum = 0;
  const int reps = 10;
  for (int rep = 0; rep < reps; ++rep) {
    const auto batch = random_permutation(tree.node_count(), rng);
    sim_sum += sim.run(batch, a).result.schedulability_ratio();
    b.reset();
    seq_sum += sequential.schedule(tree, batch, b).schedulability_ratio();
  }
  const double sim_mean = sim_sum / reps;
  const double seq_mean = seq_sum / reps;
  EXPECT_NEAR(sim_mean, seq_mean, 0.15);
}

TEST(SetupSim, LatenciesBoundedByTreeHeight) {
  const FatTree tree = FatTree::symmetric(4, 3);
  DistributedSetupSim sim(tree);
  LinkState state(tree);
  Xoshiro256ss rng(33);
  const auto batch = random_permutation(tree.node_count(), rng);
  const SetupSimReport report = sim.run(batch, state);
  for (std::uint64_t latency : report.setup_latency) {
    EXPECT_GE(latency, 2u);
    EXPECT_LE(latency, 6u);  // 2 * (l-1)
  }
}

TEST(SetupSim, RandomPolicySpreadsBetterThanGreedy) {
  const FatTree tree = FatTree::symmetric(3, 8);
  SetupSimOptions greedy_options;
  SetupSimOptions random_options;
  random_options.policy = PortPolicy::kRandom;
  DistributedSetupSim greedy(tree, greedy_options);
  DistributedSetupSim random_sim(tree, random_options);
  LinkState a(tree);
  LinkState b(tree);
  Xoshiro256ss rng(34);
  std::uint64_t greedy_total = 0;
  std::uint64_t random_total = 0;
  for (int rep = 0; rep < 10; ++rep) {
    const auto batch = random_permutation(tree.node_count(), rng);
    greedy_total += greedy.run(batch, a).result.granted_count();
    random_total += random_sim.run(batch, b).result.granted_count();
  }
  EXPECT_GT(random_total, greedy_total);
}

TEST(SetupSim, RetryRecoversTheFigure4Loser) {
  // With one retry, the token killed by the Fig. 4 race relaunches after
  // its teardown and finds the alternative port — both requests succeed.
  const FatTree tree = FatTree::symmetric(3, 4);
  SetupSimOptions options;
  options.max_attempts = 2;
  DistributedSetupSim sim(tree, options);
  LinkState state(tree);
  const std::vector<Request> batch{
      {tree.node_at(0, 0), tree.node_at(8, 0)},
      {tree.node_at(1, 0), tree.node_at(8, 1)}};
  const SetupSimReport report = sim.run(batch, state);
  EXPECT_EQ(report.result.granted_count(), 2u);
  EXPECT_EQ(report.retries, 1u);
  EXPECT_EQ(report.teardowns, 1u);
  EXPECT_TRUE(verify_schedule(tree, batch, report.result, &state).ok());
}

TEST(SetupSim, MoreAttemptsNeverGrantFewer) {
  const FatTree tree = FatTree::symmetric(3, 8);
  LinkState state(tree);
  Xoshiro256ss rng(41);
  const auto batch = random_permutation(tree.node_count(), rng);
  std::uint64_t prev = 0;
  for (const std::uint32_t attempts : {1u, 2u, 4u, 8u}) {
    SetupSimOptions options;
    options.max_attempts = attempts;
    DistributedSetupSim sim(tree, options);
    const SetupSimReport report = sim.run(batch, state);
    EXPECT_GE(report.result.granted_count(), prev) << attempts;
    prev = report.result.granted_count();
    ASSERT_TRUE(verify_schedule(tree, batch, report.result, &state).ok());
  }
}

TEST(SetupSim, RelaunchPolicyImmediateMatchesMaxAttempts) {
  // immediate(R) is the policy spelling of max_attempts = R + 1: every
  // relaunch happens the cycle after teardown, so the whole run — grants,
  // retries, latencies — is identical.
  const FatTree tree = FatTree::symmetric(3, 8);
  LinkState a(tree);
  LinkState b(tree);
  Xoshiro256ss rng(43);
  const auto batch = random_permutation(tree.node_count(), rng);
  SetupSimOptions plain;
  plain.max_attempts = 4;
  SetupSimOptions policy;
  policy.relaunch = RetryPolicy::immediate(/*max_retries=*/3);
  const SetupSimReport lhs = DistributedSetupSim(tree, plain).run(batch, a);
  const SetupSimReport rhs = DistributedSetupSim(tree, policy).run(batch, b);
  EXPECT_EQ(lhs.result.granted_count(), rhs.result.granted_count());
  EXPECT_EQ(lhs.retries, rhs.retries);
  EXPECT_EQ(lhs.teardowns, rhs.teardowns);
  EXPECT_EQ(lhs.cycles, rhs.cycles);
  EXPECT_EQ(lhs.setup_latency, rhs.setup_latency);
  EXPECT_TRUE(a == b);
}

TEST(SetupSim, RelaunchPolicyNoneMeansSingleAttempt) {
  const FatTree tree = FatTree::symmetric(3, 4);
  SetupSimOptions options;
  options.max_attempts = 8;  // must be ignored once a policy is set
  options.relaunch = RetryPolicy::none();
  DistributedSetupSim sim(tree, options);
  LinkState state(tree);
  const std::vector<Request> batch{
      {tree.node_at(0, 0), tree.node_at(8, 0)},
      {tree.node_at(1, 0), tree.node_at(8, 1)}};
  const SetupSimReport report = sim.run(batch, state);
  EXPECT_EQ(report.result.granted_count(), 1u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_TRUE(verify_schedule(tree, batch, report.result, &state).ok());
}

TEST(SetupSim, RelaunchDelayPastMaxCyclesGivesUp) {
  // A wait that ends at or past max_cycles gives the token up, exactly as
  // RetryPolicy::none() does: neither a delay near 2^64 (whose relaunch
  // cycle would wrap) nor one just past the cycle bound relaunches, and
  // neither run aborts.
  const FatTree tree = FatTree::symmetric(3, 8);
  Xoshiro256ss rng(7);
  const auto batch = random_permutation(tree.node_count(), rng);
  SetupSimOptions none;
  none.relaunch = RetryPolicy::none();
  LinkState base_state(tree);
  const SetupSimReport base =
      DistributedSetupSim(tree, none).run(batch, base_state);
  ASSERT_GT(base.teardowns, 0u);  // some token does want a relaunch

  const auto huge = parse_retry_policy("fixed:18446744073709551615");
  ASSERT_TRUE(huge.ok()) << huge.status().message();
  SetupSimOptions wrapping;
  wrapping.relaunch = huge.value();
  SetupSimOptions past_bound;
  past_bound.relaunch = RetryPolicy::fixed(/*delay=*/100);
  past_bound.max_cycles = 100;
  for (const SetupSimOptions& options : {wrapping, past_bound}) {
    LinkState state(tree);
    const SetupSimReport report =
        DistributedSetupSim(tree, options).run(batch, state);
    EXPECT_EQ(report.result.outcomes, base.result.outcomes);
    EXPECT_EQ(report.retries, 0u);
    EXPECT_EQ(report.cycles, base.cycles);
    EXPECT_TRUE(state == base_state);
  }
}

TEST(SetupSim, RelaunchBackoffDelaysButStillRecovers) {
  // The Fig. 4 loser relaunches after a fixed 5-cycle wait instead of the
  // next cycle: it still grants, and the run takes at least that much
  // longer than the immediate-relaunch one.
  const FatTree tree = FatTree::symmetric(3, 4);
  const std::vector<Request> batch{
      {tree.node_at(0, 0), tree.node_at(8, 0)},
      {tree.node_at(1, 0), tree.node_at(8, 1)}};
  SetupSimOptions immediate;
  immediate.max_attempts = 2;
  SetupSimOptions delayed;
  delayed.relaunch = RetryPolicy::fixed(/*delay=*/5, /*max_retries=*/1);
  LinkState a(tree);
  LinkState b(tree);
  const SetupSimReport fast = DistributedSetupSim(tree, immediate).run(batch, a);
  const SetupSimReport slow = DistributedSetupSim(tree, delayed).run(batch, b);
  ASSERT_EQ(fast.result.granted_count(), 2u);
  EXPECT_EQ(slow.result.granted_count(), 2u);
  EXPECT_EQ(slow.retries, 1u);
  EXPECT_GE(slow.cycles, fast.cycles + 5);
  EXPECT_TRUE(verify_schedule(tree, batch, slow.result, &b).ok());
}

TEST(SetupSim, RelaunchBackoffIsDeterministicPerSeed) {
  const FatTree tree = FatTree::symmetric(3, 8);
  LinkState a(tree);
  LinkState b(tree);
  Xoshiro256ss rng(44);
  const auto batch = random_permutation(tree.node_count(), rng);
  SetupSimOptions options;
  options.relaunch =
      RetryPolicy::backoff(1, 2.0, 16, /*max_retries=*/4, /*jitter=*/0.5);
  const SetupSimReport lhs = DistributedSetupSim(tree, options).run(batch, a);
  const SetupSimReport rhs = DistributedSetupSim(tree, options).run(batch, b);
  EXPECT_EQ(lhs.result.granted_count(), rhs.result.granted_count());
  EXPECT_EQ(lhs.cycles, rhs.cycles);
  EXPECT_EQ(lhs.setup_latency, rhs.setup_latency);
  EXPECT_TRUE(a == b);
}

TEST(SetupSim, RetriedGrantsHaveHigherLatency) {
  const FatTree tree = FatTree::symmetric(3, 4);
  SetupSimOptions options;
  options.max_attempts = 4;
  DistributedSetupSim sim(tree, options);
  LinkState state(tree);
  Xoshiro256ss rng(42);
  const auto batch = random_permutation(tree.node_count(), rng);
  const SetupSimReport report = sim.run(batch, state);
  if (report.retries == 0) GTEST_SKIP() << "no conflicts drawn";
  std::uint64_t max_latency = 0;
  for (std::uint64_t latency : report.setup_latency) {
    max_latency = std::max(max_latency, latency);
  }
  // A retried token pays at least one teardown + relaunch beyond 2(l-1).
  EXPECT_GT(max_latency, 4u);
}

TEST(SetupSim, TelemetrySamplesEveryProtocolCycle) {
  const FatTree tree = FatTree::symmetric(3, 4);
  obs::LinkTelemetry telemetry;
  SetupSimOptions options;
  options.telemetry = &telemetry;
  DistributedSetupSim sim(tree, options);
  LinkState state(tree);
  const Request request{0, 63};  // H = 2: 4 protocol cycles
  const SetupSimReport report = sim.run({&request, 1}, state);
  ASSERT_TRUE(report.result.outcomes[0].granted);

  EXPECT_EQ(telemetry.samples(), report.cycles);
  EXPECT_EQ(telemetry.levels(), state.link_levels());
  // The final sample shows exactly the completed circuit's channels.
  const auto& last = telemetry.series().back();
  std::uint64_t occupied = 0;
  for (std::uint32_t h = 0; h < state.link_levels(); ++h) {
    occupied += last.up_occupied[h] + last.down_occupied[h];
    EXPECT_EQ(last.up_occupied[h], state.occupied_ulinks_at(h));
    EXPECT_EQ(last.down_occupied[h], state.occupied_dlinks_at(h));
  }
  EXPECT_EQ(occupied, state.total_occupied());
  // Occupancy during the ascent is visible: the first sample already holds
  // the first reserved up channel.
  EXPECT_GE(telemetry.series().front().up_occupied[0], 1u);
}

TEST(SetupSim, TelemetryDoesNotChangeProtocolOutcome) {
  const FatTree tree = FatTree::symmetric(3, 4);
  const std::vector<Request> batch{
      {tree.node_at(0, 0), tree.node_at(8, 0)},
      {tree.node_at(1, 0), tree.node_at(8, 1)}};
  DistributedSetupSim bare(tree);
  LinkState state_a(tree);
  const SetupSimReport a = bare.run(batch, state_a);

  obs::LinkTelemetry telemetry;
  SetupSimOptions options;
  options.telemetry = &telemetry;
  DistributedSetupSim sampled(tree, options);
  LinkState state_b(tree);
  const SetupSimReport b = sampled.run(batch, state_b);

  EXPECT_EQ(a.result, b.result);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.teardowns, b.teardowns);
  EXPECT_EQ(state_a, state_b);
}

TEST(SetupSim, LeafConflictsRejectedBeforeSimulation) {
  const FatTree tree = FatTree::symmetric(2, 4);
  DistributedSetupSim sim(tree);
  LinkState state(tree);
  const std::vector<Request> batch{{0, 9}, {5, 9}};
  const SetupSimReport report = sim.run(batch, state);
  EXPECT_TRUE(report.result.outcomes[0].granted);
  EXPECT_EQ(report.result.outcomes[1].reason, RejectReason::kLeafBusy);
}

}  // namespace
}  // namespace ftsched
