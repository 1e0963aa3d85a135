#include "fault/fabric_manager.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/retry_policy.hpp"
#include "linkstate/faults.hpp"
#include "workload/patterns.hpp"

namespace ftsched {
namespace {

// All four up-cables of leaf switch 0 in FT(2, 4): any circuit ascending
// from nodes 0..3 crosses one of them, whichever port the scheduler picked.
std::vector<CableId> leaf0_up_cables() {
  return {CableId{0, 0, 0}, CableId{0, 0, 1}, CableId{0, 0, 2},
          CableId{0, 0, 3}};
}

FaultTimeline outage(SimTime fail_at, SimTime repair_at) {
  std::vector<FaultEvent> events;
  for (const CableId& c : leaf0_up_cables()) {
    events.push_back(FaultEvent{fail_at, c, true});
    events.push_back(FaultEvent{repair_at, c, false});
  }
  auto timeline = FaultTimeline::from_script(std::move(events));
  FT_REQUIRE(timeline.ok());
  return std::move(timeline).value();
}

TEST(FabricManager, FaultFreeBatchGrantsLikeOneShot) {
  const FatTree tree = FatTree::symmetric(2, 4);
  Simulator sim;
  FabricOptions options;
  options.deep_verify = true;
  FabricManager fabric(tree, sim, options);
  fabric.submit({{0, 4}, {5, 1}, {10, 14}}, 0);
  sim.run();
  EXPECT_EQ(fabric.stats().submitted, 3u);
  EXPECT_EQ(fabric.stats().first_attempt_granted, 3u);
  EXPECT_EQ(fabric.stats().fail_events, 0u);
  EXPECT_EQ(fabric.open_circuits(), 3u);
  EXPECT_DOUBLE_EQ(fabric.first_attempt_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(fabric.open_ratio(), 1.0);
  fabric.verify_invariants();
}

TEST(FabricManager, RevokedVictimRecoversAfterRepair) {
  const FatTree tree = FatTree::symmetric(2, 4);
  Simulator sim;
  FabricOptions options;
  options.retry = RetryPolicy::fixed(1, 30);
  options.deep_verify = true;
  FabricManager fabric(tree, sim, options);
  fabric.install(outage(5, 20));
  fabric.submit({{0, 4}}, 0);

  // Mid-outage probe: the faulted cables stay marked, the victim's channels
  // really were released, and no open circuit crosses a dead cable.
  sim.schedule_at(10, [&] {
    const LinkState& state = fabric.connections().state();
    EXPECT_TRUE(faults_still_marked(state, FaultPlan{leaf0_up_cables()}));
    EXPECT_EQ(fabric.open_circuits(), 0u);
    EXPECT_EQ(fabric.pending_retries(), 1u);
    fabric.verify_invariants();
  });
  sim.run();

  const FabricStats& stats = fabric.stats();
  EXPECT_EQ(stats.victims, 1u);
  EXPECT_EQ(stats.recovered, 1u);
  EXPECT_EQ(stats.fail_events, 4u);
  EXPECT_EQ(stats.repair_events, 4u);
  EXPECT_EQ(fabric.open_circuits(), 1u);
  EXPECT_DOUBLE_EQ(fabric.recovery_success_ratio(), 1.0);
  // Revoked at t = 5, retried every tick; the repair events at t = 20 were
  // scheduled first (installation order), so the same-tick retry already
  // sees a healthy fabric and the circuit re-grants at t = 20.
  ASSERT_EQ(stats.recovery_latency.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.recovery_latency[0], 15.0);
  ASSERT_EQ(stats.retry_latency.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.retry_latency[0], 15.0);
  // First attempt (t = 0) succeeded; the revocation does not rewrite it.
  EXPECT_EQ(stats.first_attempt_granted, 1u);
  EXPECT_EQ(stats.ever_granted, 1u);
  EXPECT_EQ(stats.grants, 2u);
  // After full repair the fabric holds exactly the re-granted circuit.
  fabric.verify_invariants();
}

TEST(FabricManager, NoRetryPolicyMeansPermanentLoss) {
  const FatTree tree = FatTree::symmetric(2, 4);
  Simulator sim;
  FabricOptions options;
  options.retry = RetryPolicy::none();
  options.deep_verify = true;
  FabricManager fabric(tree, sim, options);
  fabric.install(outage(5, 20));
  fabric.submit({{0, 4}}, 0);
  sim.run();
  const FabricStats& stats = fabric.stats();
  EXPECT_EQ(stats.victims, 1u);
  EXPECT_EQ(stats.recovered, 0u);
  EXPECT_EQ(stats.permanent_rejects, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(fabric.open_circuits(), 0u);
  EXPECT_DOUBLE_EQ(fabric.open_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(fabric.recovery_success_ratio(), 0.0);
  fabric.verify_invariants();
}

TEST(FabricManager, AdmissionGateShedsExcessRetries) {
  const FatTree tree = FatTree::symmetric(2, 4);
  Simulator sim;
  FabricOptions options;
  options.retry = RetryPolicy::fixed(1, 1);
  options.max_pending = 1;
  FabricManager fabric(tree, sim, options);
  // Same source three times: one grant, two injection-conflict rejects.
  fabric.submit({{0, 4}, {0, 5}, {0, 6}}, 0);
  sim.run();
  const FabricStats& stats = fabric.stats();
  EXPECT_EQ(stats.first_attempt_granted, 1u);
  EXPECT_EQ(stats.shed, 1u);       // gate held one of the two rejects back
  EXPECT_EQ(stats.retries, 1u);    // the admitted one retried once...
  EXPECT_EQ(stats.permanent_rejects, 1u);  // ...and ran out of budget
  EXPECT_EQ(fabric.open_circuits(), 1u);
  fabric.verify_invariants();
}

TEST(FabricManager, RetryPastHorizonIsAbandoned) {
  const FatTree tree = FatTree::symmetric(2, 4);
  Simulator sim;
  FabricOptions options;
  options.retry = RetryPolicy::fixed(50, 8);
  options.horizon = 30;
  FabricManager fabric(tree, sim, options);
  fabric.install(outage(5, 20));
  fabric.submit({{0, 4}}, 0);
  sim.run();
  EXPECT_EQ(fabric.stats().victims, 1u);
  EXPECT_EQ(fabric.stats().abandoned, 1u);
  EXPECT_EQ(fabric.stats().retries, 0u);
  fabric.verify_invariants();
}

TEST(FabricManager, DelayNearTheTickRangeIsAbandonedNotWrapped) {
  // now + delay used to wrap to now - 1 and abort in schedule_at; the
  // largest delay the parser takes must be abandoned at any horizon.
  const FatTree tree = FatTree::symmetric(2, 4);
  for (const SimTime horizon : {SimTime{1000}, ~SimTime{0}}) {
    Simulator sim;
    FabricOptions options;
    options.retry = parse_retry_policy("fixed:18446744073709551615:1").value();
    options.horizon = horizon;
    FabricManager fabric(tree, sim, options);
    fabric.submit({{0, 4}, {0, 5}}, 1);  // one injection-conflict reject
    sim.run();
    const FabricStats& stats = fabric.stats();
    EXPECT_EQ(stats.first_attempt_granted, 1u);
    EXPECT_EQ(stats.abandoned, 1u);
    EXPECT_EQ(stats.retries, 0u);
    fabric.verify_invariants();
  }
}

TEST(FabricManager, BackoffAtTheLargestBaseRetriesUntilTheTickRangeRunsOut) {
  // backoff at the largest base the parser takes: 2^58, 2^59, … ticks. The
  // reject repeats (the source stays busy), so the clock climbs toward 2^64;
  // the seventh delay reaches the cap, which no longer fits before the
  // horizon, and is abandoned instead of wrapping the clock.
  const FatTree tree = FatTree::symmetric(2, 4);
  Simulator sim;
  FabricOptions options;
  options.retry = parse_retry_policy("backoff:288230376151711743").value();
  options.horizon = ~SimTime{0};
  FabricManager fabric(tree, sim, options);
  fabric.submit({{0, 4}, {0, 5}}, 1);
  sim.run();
  const FabricStats& stats = fabric.stats();
  EXPECT_EQ(stats.first_attempt_granted, 1u);
  EXPECT_EQ(stats.retries, 6u);
  EXPECT_EQ(stats.abandoned, 1u);
  EXPECT_EQ(stats.permanent_rejects, 0u);
  EXPECT_EQ(sim.now(), 1 + (std::uint64_t{63} << 58));
  fabric.verify_invariants();
}

TEST(FabricManager, ChaosSweepKeepsInvariantsAtEveryEvent) {
  // Random permutation workload + dense sampled timeline on FT(3, 4), with
  // the full invariant bundle after every batch, failure, and repair.
  const FatTree tree = FatTree::symmetric(3, 4);
  Simulator sim;
  FabricOptions options;
  options.horizon = 200;
  options.deep_verify = true;
  FabricManager fabric(tree, sim, options);
  Xoshiro256ss rng(11);
  const auto batch = generate_pattern(
      tree, TrafficPattern::kRandomPermutation, rng, WorkloadOptions{});
  fabric.install(FaultTimeline::from_mtbf(tree, 120.0, 40.0, 200, 13));
  fabric.submit(batch, 0);
  sim.run();
  const FabricStats& stats = fabric.stats();
  EXPECT_GT(stats.fail_events, 0u);
  EXPECT_GE(stats.victims, stats.recovered);
  EXPECT_EQ(stats.recovery_latency.size(), stats.recovered);
  fabric.verify_invariants();
}

TEST(FabricManager, CloseReleasesAndConservesCircuits) {
  const FatTree tree = FatTree::symmetric(2, 4);
  Simulator sim;
  FabricManager fabric(tree, sim, FabricOptions{});
  fabric.submit({{0, 4}, {5, 1}, {10, 14}}, 0);
  sim.run();
  ASSERT_EQ(fabric.open_circuits(), 3u);

  std::vector<ConnectionId> ids = fabric.open_ids();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_TRUE(fabric.close(ids[1]).ok());
  EXPECT_EQ(fabric.open_circuits(), 2u);
  EXPECT_EQ(fabric.stats().closed, 1u);
  // Conservation: every grant is exactly one of open / closed / victim.
  EXPECT_EQ(fabric.stats().grants,
            fabric.open_circuits() + fabric.stats().closed +
                fabric.stats().victims);
  EXPECT_TRUE(fabric.check_invariants().ok());

  // Double-close and unknown ids are reported errors, not aborts — the
  // soak engine probes closes against the live set and must stay alive.
  EXPECT_FALSE(fabric.close(ids[1]).ok());
  EXPECT_FALSE(fabric.close(ConnectionId{9999}).ok());
  EXPECT_TRUE(fabric.check_invariants().ok());

  // Remaining ids stay closeable down to an empty fabric.
  for (const ConnectionId id : fabric.open_ids()) {
    EXPECT_TRUE(fabric.close(id).ok());
  }
  EXPECT_EQ(fabric.open_circuits(), 0u);
  EXPECT_EQ(fabric.stats().closed, 3u);
  fabric.verify_invariants();
}

TEST(FabricManager, ImmediateChaosSurfaceMatchesTimelineInstall) {
  // fail_cable/repair_cable are the soak engine's immediate-mode doors into
  // the same on_fail/on_repair handlers a FaultTimeline drives; an outage
  // expressed either way must produce identical stats and final state.
  const FatTree tree = FatTree::symmetric(2, 4);
  const auto run = [&](bool immediate) {
    Simulator sim;
    FabricOptions options;
    options.retry = RetryPolicy::fixed(1, 30);
    options.deep_verify = true;
    FabricManager fabric(tree, sim, options);
    if (immediate) {
      for (const CableId& c : leaf0_up_cables()) {
        sim.schedule_at(5, [&fabric, c] { fabric.fail_cable(c); });
        sim.schedule_at(20, [&fabric, c] { fabric.repair_cable(c); });
      }
    } else {
      fabric.install(outage(5, 20));
    }
    fabric.submit({{0, 4}}, 0);
    sim.run();
    EXPECT_TRUE(fabric.check_invariants().ok());
    return fabric.stats();
  };
  const FabricStats via_events = run(true);
  const FabricStats via_timeline = run(false);
  EXPECT_EQ(via_events.victims, via_timeline.victims);
  EXPECT_EQ(via_events.recovered, via_timeline.recovered);
  EXPECT_EQ(via_events.fail_events, via_timeline.fail_events);
  EXPECT_EQ(via_events.repair_events, via_timeline.repair_events);
  EXPECT_EQ(via_events.grants, via_timeline.grants);
  EXPECT_EQ(via_events.recovery_latency, via_timeline.recovery_latency);
}

TEST(FabricManager, CableIsFailedTracksLiveState) {
  const FatTree tree = FatTree::symmetric(2, 4);
  Simulator sim;
  FabricManager fabric(tree, sim, FabricOptions{});
  const CableId cable{0, 0, 2};
  EXPECT_FALSE(fabric.cable_is_failed(cable));
  sim.schedule_at(1, [&] {
    fabric.fail_cable(cable);
    EXPECT_TRUE(fabric.cable_is_failed(cable));
  });
  sim.schedule_at(2, [&] { fabric.repair_cable(cable); });
  sim.run();
  EXPECT_FALSE(fabric.cable_is_failed(cable));
  EXPECT_EQ(fabric.stats().fail_events, 1u);
  EXPECT_EQ(fabric.stats().repair_events, 1u);
  fabric.verify_invariants();
}

void run_double_fail() {
  const FatTree tree = FatTree::symmetric(2, 4);
  Simulator sim;
  FabricManager fabric(tree, sim, FabricOptions{});
  const CableId c{0, 0, 0};
  auto first = FaultTimeline::from_script({FaultEvent{1, c, true}});
  auto second = FaultTimeline::from_script({FaultEvent{2, c, true}});
  fabric.install(first.value());
  fabric.install(second.value());
  sim.run();
}

TEST(FabricManagerDeath, DoubleFailAcrossInstallsAborts) {
  // from_script validates one script; two separate installs can still merge
  // into an inconsistent schedule — the manager catches it at event time.
  EXPECT_DEATH(run_double_fail(), "failed twice");
}

void run_unknown_scheduler() {
  const FatTree tree = FatTree::symmetric(2, 4);
  Simulator sim;
  FabricOptions options;
  options.scheduler = "no-such-scheduler";
  FabricManager fabric(tree, sim, options);
}

TEST(FabricManagerDeath, UnknownSchedulerRejected) {
  EXPECT_DEATH(run_unknown_scheduler(), "unknown scheduler");
}

}  // namespace
}  // namespace ftsched
