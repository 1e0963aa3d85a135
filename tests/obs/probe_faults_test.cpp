// SchedulerProbe accounting under injected link faults.
//
// Fault injection pre-occupies channels before the batch runs, which is
// exactly the situation where sloppy probe accounting would double-count or
// drop rejections (requests now die at admission or mid-descent far more
// often). These tests pin that the probe's invariants are fault-oblivious:
// every request reports exactly one outcome, the per-level and per-reason
// histograms still sum to the reject count, an attached probe still never
// steers, and no granted circuit ever crosses a faulted cable.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/request.hpp"
#include "linkstate/faults.hpp"
#include "linkstate/link_state.hpp"
#include "linkstate/telemetry.hpp"
#include "obs/sched_probe.hpp"
#include "obs/sink.hpp"
#include "topology/fat_tree.hpp"
#include "util/rng.hpp"
#include "workload/patterns.hpp"

namespace ftsched {
namespace {

std::uint64_t sum(const std::vector<std::uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

TEST(ProbeUnderFaults, InvariantsHoldForEveryScheduler) {
  const FatTree tree = FatTree::symmetric(3, 4);
  const FaultPlan plan = exact_cable_faults(tree, 12, 0xfa117ULL);
  Xoshiro256ss rng(0xbadc0deULL);
  const std::vector<Request> batch = generate_pattern(
      tree, TrafficPattern::kRandomPermutation, rng, WorkloadOptions{});

  for (const std::string& name : scheduler_names()) {
    if (name == "matching2") continue;  // 2-level only
    auto sched = make_scheduler(name, 42);
    ASSERT_TRUE(sched.ok()) << name;
    obs::SchedulerProbe probe;
    obs::Sink sink{.probe = &probe};
    sched.value()->set_sink(&sink);

    LinkState state(tree);
    apply_faults(state, plan);
    const ScheduleResult result = sched.value()->schedule(tree, batch, state);

    EXPECT_EQ(probe.batches(), 1u) << name;
    EXPECT_EQ(probe.requests(), batch.size()) << name;
    EXPECT_EQ(probe.grants(), result.granted_count()) << name;
    EXPECT_EQ(probe.rejects(), batch.size() - result.granted_count()) << name;
    EXPECT_EQ(sum(probe.reject_by_level()), probe.rejects()) << name;
    EXPECT_EQ(sum(probe.reject_by_reason()), probe.rejects()) << name;
    EXPECT_EQ(sum(probe.grant_by_ancestor()), probe.grants()) << name;
    // Faults stay masked: no grant stole a dead channel, no rollback
    // "released" one back into the pool.
    EXPECT_TRUE(faults_still_marked(state, plan)) << name;
  }
}

TEST(ProbeUnderFaults, AttachedProbeStillDoesNotSteer) {
  const FatTree tree = FatTree::symmetric(2, 8);
  const FaultPlan plan = exact_cable_faults(tree, 6, 0x5eedULL);
  Xoshiro256ss rng(0x1234ULL);
  const std::vector<Request> batch = generate_pattern(
      tree, TrafficPattern::kRandomPermutation, rng, WorkloadOptions{});

  for (const std::string& name : scheduler_names()) {
    auto bare = make_scheduler(name, 7);
    auto probed = make_scheduler(name, 7);
    ASSERT_TRUE(bare.ok());
    ASSERT_TRUE(probed.ok());
    // The full sink: probe, ledger and trace writer.
    obs::SchedulerProbe probe;
    obs::FlightRecorder flight(1, 64);
    obs::TraceWriter trace;
    obs::Sink sink{.probe = &probe, .flight = &flight, .trace = &trace};
    probed.value()->set_sink(&sink);

    LinkState state_a(tree);
    LinkState state_b(tree);
    apply_faults(state_a, plan);
    apply_faults(state_b, plan);
    bare.value()->reseed(3);
    probed.value()->reseed(3);
    const ScheduleResult a = bare.value()->schedule(tree, batch, state_a);
    const ScheduleResult b = probed.value()->schedule(tree, batch, state_b);
    EXPECT_EQ(a, b) << name;
    EXPECT_EQ(state_a, state_b) << name;
    EXPECT_EQ(probe.requests(), batch.size()) << name;
    EXPECT_EQ(trace.size(), 1u) << name;
  }
}

TEST(ProbeUnderFaults, HeavierFaultsNeverShrinkRejectAccounting) {
  // Sweeping the fault count upward, the probe must keep requests constant
  // and its outcome split exhaustive — the histograms never leak even when
  // nearly every channel is dead.
  const FatTree tree = FatTree::symmetric(3, 4);
  Xoshiro256ss rng(0x777ULL);
  const std::vector<Request> batch = generate_pattern(
      tree, TrafficPattern::kRandomPermutation, rng, WorkloadOptions{});
  for (const std::uint64_t count : {0ULL, 8ULL, 32ULL, 60ULL}) {
    const FaultPlan plan = exact_cable_faults(tree, count, 0xabcULL);
    auto sched = make_scheduler("levelwise", 1);
    ASSERT_TRUE(sched.ok());
    obs::SchedulerProbe probe;
    obs::Sink sink{.probe = &probe};
    sched.value()->set_sink(&sink);
    LinkState state(tree);
    apply_faults(state, plan);
    sched.value()->schedule(tree, batch, state);
    EXPECT_EQ(probe.requests(), batch.size()) << count << " faults";
    EXPECT_EQ(probe.grants() + probe.rejects(), batch.size())
        << count << " faults";
    EXPECT_EQ(sum(probe.reject_by_level()), probe.rejects())
        << count << " faults";
    EXPECT_TRUE(faults_still_marked(state, plan)) << count << " faults";
  }
}

TEST(ProbeUnderFaults, TelemetrySeesFaultedChannelsAsBusy) {
  // A faulted fabric sampled before any scheduling shows exactly the
  // fault-occupied channels busy — the degradation picture LinkTelemetry is
  // for, cross-checked against LinkState's own occupancy accounting.
  const FatTree tree = FatTree::symmetric(3, 4);
  const FaultPlan plan = exact_cable_faults(tree, 10, 0x99ULL);
  LinkState state(tree);
  apply_faults(state, plan);

  obs::LinkTelemetry telemetry;
  sample_link_state(state, 0, telemetry);
  ASSERT_EQ(telemetry.series().size(), 1u);
  for (std::uint32_t h = 0; h < state.link_levels(); ++h) {
    EXPECT_EQ(telemetry.series()[0].up_occupied[h],
              state.occupied_ulinks_at(h));
    EXPECT_EQ(telemetry.series()[0].down_occupied[h],
              state.occupied_dlinks_at(h));
  }
  // Both directions of every faulted cable are busy; nothing else is, so
  // the top-contended reduction holds exactly 2 * |plan| channels.
  EXPECT_EQ(telemetry.top_contended(1000).size(),
            2 * plan.failed_cables.size());
}

}  // namespace
}  // namespace ftsched
