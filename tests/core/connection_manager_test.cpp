#include "core/connection_manager.hpp"

#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "core/verifier.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/sink.hpp"
#include "workload/patterns.hpp"

namespace ftsched {
namespace {

TEST(ConnectionManager, OpenCloseRoundTrip) {
  const FatTree tree = FatTree::symmetric(3, 4);
  ConnectionManager manager(tree);
  const auto id = manager.open(Request{0, 63});
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(manager.active_count(), 1u);
  EXPECT_GT(manager.state().total_occupied(), 0u);
  EXPECT_TRUE(manager.close(*id).ok());
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_EQ(manager.state().total_occupied(), 0u);
}

TEST(ConnectionManager, FindReturnsEstablishedPath) {
  const FatTree tree = FatTree::symmetric(3, 4);
  ConnectionManager manager(tree);
  const auto id = manager.open(Request{0, 63});
  ASSERT_TRUE(id.has_value());
  const Path* path = manager.find(*id);
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(path->src, 0u);
  EXPECT_EQ(path->dst, 63u);
  EXPECT_TRUE(check_path_legal(tree, *path).ok());
  EXPECT_EQ(manager.find(*id + 100), nullptr);
}

TEST(ConnectionManager, CloseUnknownIdFails) {
  const FatTree tree = FatTree::symmetric(2, 4);
  ConnectionManager manager(tree);
  EXPECT_FALSE(manager.close(42).ok());
}

TEST(ConnectionManager, EndpointExclusivity) {
  const FatTree tree = FatTree::symmetric(2, 4);
  ConnectionManager manager(tree);
  ASSERT_TRUE(manager.open(Request{0, 9}).has_value());
  // Same source PE or same destination PE cannot open a second circuit.
  EXPECT_FALSE(manager.open(Request{0, 10}).has_value());
  EXPECT_FALSE(manager.open(Request{1, 9}).has_value());
  // Unrelated endpoints are fine.
  EXPECT_TRUE(manager.open(Request{1, 10}).has_value());
}

TEST(ConnectionManager, ReleasedEndpointsReusable) {
  const FatTree tree = FatTree::symmetric(2, 4);
  ConnectionManager manager(tree);
  const auto id = manager.open(Request{0, 9});
  ASSERT_TRUE(id.has_value());
  ASSERT_TRUE(manager.close(*id).ok());
  EXPECT_TRUE(manager.open(Request{0, 9}).has_value());
}

TEST(ConnectionManager, SaturationAndRecovery) {
  // FT(2,2): each leaf switch has 2 up links; 2 inter-switch circuits from
  // one leaf switch saturate its up side.
  const FatTree tree = FatTree::symmetric(2, 2);
  ConnectionManager manager(tree);
  const auto a = manager.open(Request{0, 2});  // leaf 0 -> leaf 1
  const auto b = manager.open(Request{1, 3});
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_DOUBLE_EQ(manager.level_utilization(0), 0.5);  // 2 of 4 up links
  ASSERT_TRUE(manager.close(*a).ok());
  EXPECT_DOUBLE_EQ(manager.level_utilization(0), 0.25);
  EXPECT_TRUE(manager.open(Request{0, 2}).has_value());
}

TEST(ConnectionManager, RejectedOpenLeavesNoResidue) {
  // Slimmed FT(2, m=4, w=2): a leaf switch has 4 PEs but only 2 uplinks, so
  // a third inter-switch circuit from one leaf is blocked even though its
  // endpoints are free — the open must fail without leaving residue.
  const FatTree tree = FatTree::create(FatTreeParams{2, 4, 2}).value();
  ConnectionManager manager(tree);
  ASSERT_TRUE(manager.open(Request{0, 4}).has_value());
  ASSERT_TRUE(manager.open(Request{1, 5}).has_value());
  const std::uint64_t occupied = manager.state().total_occupied();
  EXPECT_FALSE(manager.open(Request{2, 6}).has_value());
  EXPECT_EQ(manager.state().total_occupied(), occupied);
  EXPECT_EQ(manager.active_count(), 2u);
  // Endpoints of the failed open stay reusable.
  ASSERT_TRUE(manager.close(*manager.open(Request{6, 2})).ok());
}

TEST(ConnectionManager, ClearResetsEverything) {
  const FatTree tree = FatTree::symmetric(3, 4);
  ConnectionManager manager(tree);
  ASSERT_TRUE(manager.open(Request{0, 63}).has_value());
  ASSERT_TRUE(manager.open(Request{1, 62}).has_value());
  manager.clear();
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_EQ(manager.state().total_occupied(), 0u);
  EXPECT_TRUE(manager.open(Request{0, 63}).has_value());
}

TEST(ConnectionManager, ChurnKeepsStateConsistent) {
  const FatTree tree = FatTree::symmetric(3, 4);
  ConnectionManager manager(tree);
  Xoshiro256ss rng(11);
  std::vector<ConnectionId> open_ids;
  for (int step = 0; step < 2000; ++step) {
    if (!open_ids.empty() && rng.below(3) == 0) {
      const std::size_t pick = rng.below(open_ids.size());
      ASSERT_TRUE(manager.close(open_ids[pick]).ok());
      open_ids.erase(open_ids.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const Request r{rng.below(tree.node_count()),
                      rng.below(tree.node_count())};
      const auto id = manager.open(r);
      if (id) open_ids.push_back(*id);
    }
    ASSERT_TRUE(manager.state().audit().ok());
  }
  for (ConnectionId id : open_ids) ASSERT_TRUE(manager.close(id).ok());
  EXPECT_EQ(manager.state().total_occupied(), 0u);
}

TEST(ConnectionManagerBatch, EmptyFabricBatchMatchesStandaloneScheduler) {
  const FatTree tree = FatTree::symmetric(3, 4);
  Xoshiro256ss rng(21);
  const auto batch = generate_pattern(tree, TrafficPattern::kRandomPermutation,
                                      rng, WorkloadOptions{});

  auto standalone = make_scheduler("levelwise", 2006);
  ASSERT_TRUE(standalone.ok());
  LinkState reference(tree);
  const ScheduleResult expected =
      standalone.value()->schedule(tree, batch, reference);

  auto managed = make_scheduler("levelwise", 2006);
  ASSERT_TRUE(managed.ok());
  ConnectionManager manager(tree);
  const BatchOpenResult result = manager.open_batch(batch, *managed.value());

  ASSERT_EQ(result.schedule.outcomes.size(), expected.outcomes.size());
  for (std::size_t i = 0; i < expected.outcomes.size(); ++i) {
    EXPECT_EQ(result.schedule.outcomes[i], expected.outcomes[i]) << i;
    EXPECT_EQ(result.ids[i].has_value(), expected.outcomes[i].granted) << i;
  }
  EXPECT_EQ(manager.active_count(), expected.granted_count());
  EXPECT_EQ(manager.state(), reference);
}

TEST(ConnectionManagerBatch, OpenEndpointsPreFilteredAsLeafBusy) {
  const FatTree tree = FatTree::symmetric(2, 4);
  ConnectionManager manager(tree);
  const auto held = manager.open(Request{0, 4});
  ASSERT_TRUE(held.has_value());

  auto scheduler = make_scheduler("levelwise", 1);
  ASSERT_TRUE(scheduler.ok());
  const BatchOpenResult result =
      manager.open_batch({{0, 8}, {8, 4}, {5, 9}}, *scheduler.value());
  EXPECT_FALSE(result.schedule.outcomes[0].granted);  // src 0 claimed
  EXPECT_EQ(result.schedule.outcomes[0].reason, RejectReason::kLeafBusy);
  EXPECT_FALSE(result.schedule.outcomes[1].granted);  // dst 4 claimed
  EXPECT_EQ(result.schedule.outcomes[1].reason, RejectReason::kLeafBusy);
  EXPECT_TRUE(result.schedule.outcomes[2].granted);
  EXPECT_EQ(result.granted_count(), 1u);
}

TEST(ConnectionManagerFault, FailCableRevokesExactlyCrossingCircuits) {
  const FatTree tree = FatTree::symmetric(2, 4);
  ConnectionManager manager(tree);
  // Circuit A ascends from leaf switch 0, circuit B from leaf switch 2.
  const auto a = manager.open(Request{0, 4});
  const auto b = manager.open(Request{8, 12});
  ASSERT_TRUE(a.has_value() && b.has_value());
  const Path* path_a = manager.find(*a);
  ASSERT_NE(path_a, nullptr);
  const std::uint32_t port_a = path_a->ports[0];
  const CableId dead{0, 0, port_a};

  // fail_cable erases circuit A, so path_a is dangling past this point.
  const std::vector<Revocation> victims = manager.fail_cable(dead);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].id, *a);
  EXPECT_EQ(victims[0].request, (Request{0, 4}));
  EXPECT_EQ(manager.active_count(), 1u);
  EXPECT_NE(manager.find(*b), nullptr);
  EXPECT_EQ(manager.find(*a), nullptr);
  EXPECT_TRUE(manager.state().cable_faulted(0, 0, port_a));
}

TEST(ConnectionManagerFault, RevokeRescheduleRepairLeavesNoResidue) {
  // The clear_faults hazard, end to end: a victim's replacement circuit may
  // re-occupy a channel of the failed cable's switch; repairing the cable
  // afterwards must restore exactly the channels nobody holds, and closing
  // everything must land on the pristine state.
  const FatTree tree = FatTree::symmetric(2, 4);
  ConnectionManager manager(tree);
  auto scheduler = make_scheduler("levelwise", 7);
  ASSERT_TRUE(scheduler.ok());

  const BatchOpenResult opened =
      manager.open_batch({{0, 4}, {1, 5}, {2, 6}}, *scheduler.value());
  ASSERT_EQ(opened.granted_count(), 3u);

  const Path* victim_path = manager.find(*opened.ids[0]);
  ASSERT_NE(victim_path, nullptr);
  const CableId dead{0, 0, victim_path->ports[0]};
  const std::vector<Revocation> victims = manager.fail_cable(dead);
  ASSERT_EQ(victims.size(), 1u);

  // Reschedule the victim while the cable is still down: the scheduler must
  // route it over one of leaf switch 0's three surviving up-cables.
  const BatchOpenResult retried =
      manager.open_batch({victims[0].request}, *scheduler.value());
  ASSERT_EQ(retried.granted_count(), 1u);
  const Path* new_path = manager.find(*retried.ids[0]);
  ASSERT_NE(new_path, nullptr);
  EXPECT_NE(new_path->ports[0], dead.port);

  manager.repair_cable(dead);
  EXPECT_FALSE(manager.state().cable_faulted(0, 0, dead.port));

  // Close every circuit: the state must be exactly pristine.
  EXPECT_TRUE(manager.close(*retried.ids[0]).ok());
  EXPECT_TRUE(manager.close(*opened.ids[1]).ok());
  EXPECT_TRUE(manager.close(*opened.ids[2]).ok());
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_EQ(manager.state(), LinkState(tree));
  EXPECT_TRUE(manager.state().audit().ok());
}

TEST(ConnectionManagerFault, RepairBeforeCloseKeepsHeldChannelsOccupied) {
  const FatTree tree = FatTree::symmetric(2, 4);
  ConnectionManager manager(tree);
  const auto id = manager.open(Request{0, 4});
  ASSERT_TRUE(id.has_value());
  const Path* path = manager.find(*id);
  ASSERT_NE(path, nullptr);
  const std::uint32_t port = path->ports[0];

  // Fail a cable the circuit does NOT cross, then repair it: the circuit's
  // own channels must be untouched throughout.
  const CableId other{0, 0, (port + 1) % tree.parent_arity()};
  EXPECT_TRUE(manager.fail_cable(other).empty());
  manager.repair_cable(other);
  EXPECT_NE(manager.find(*id), nullptr);
  EXPECT_FALSE(manager.state().ulink(0, 0, port));
  EXPECT_TRUE(manager.close(*id).ok());
  EXPECT_EQ(manager.state(), LinkState(tree));
}

// The lifecycle ledger belongs to the connection layer: a ring attached to
// the manager alone records one GRANTED or REJECTED per request of a tracked
// batch, pre-filtered requests first, and a probe on the scheduler changes
// nothing in it.
TEST(ConnectionManagerFlight, RingAloneRecordsEveryOutcome) {
  const FatTree tree = FatTree::symmetric(3, 4);
  // First-fit prefill: Ulink(1, 0) holds ports {0, 1} and Dlink(1, 8) holds
  // {2, 3}, so a pod 0 -> pod 2 circuit that climbs port 0 of leaf 2 finds no
  // common port at level 1.
  const std::vector<Request> prefill = {{0, 16},  {4, 20},  {17, 49},
                                        {21, 53}, {25, 33}, {29, 37}};
  const std::vector<Request> batch = {
      {8, 40},   // rejected at level 1
      {9, 41},   // granted at H = 2 through port 1 of leaf 2
      {0, 50},   // source held by the prefill: pre-filtered
      {9, 44},   // source claimed earlier in the batch: leaf busy
      {12, 13},  // inside one leaf crossbar: granted at H = 0
      {2, 5}};   // granted at H = 1
  const std::vector<std::uint64_t> ids = {100, 101, 102, 103, 104, 105};
  constexpr std::uint64_t kNow = 7;
  const auto leaf_busy = static_cast<std::uint8_t>(RejectReason::kLeafBusy);
  const auto no_port = static_cast<std::uint8_t>(RejectReason::kNoCommonPort);
  const std::vector<obs::FlightEvent> expected = {
      obs::FlightEvent::rejected(102, kNow, leaf_busy, 0),
      obs::FlightEvent::rejected(100, kNow, no_port, 1),
      obs::FlightEvent::granted(101, kNow, 2),
      obs::FlightEvent::rejected(103, kNow, leaf_busy, 0),
      obs::FlightEvent::granted(104, kNow, 0),
      obs::FlightEvent::granted(105, kNow, 1)};

  auto ledger = [&](obs::SchedulerProbe* probe) {
    ConnectionManager manager(tree);
    for (const Request& r : prefill) EXPECT_TRUE(manager.open(r).has_value());
    // One sink for both: the manager writes the ledger, the scheduler counts.
    obs::FlightRecorder recorder(1, 64);
    obs::Sink sink{.probe = probe, .flight = &recorder, .now = kNow};
    manager.set_sink(&sink);
    const std::unique_ptr<Scheduler> scheduler =
        make_scheduler("levelwise", 1).value();
    scheduler->set_sink(&sink);
    EXPECT_EQ(manager.open_batch(batch, *scheduler, ids).granted_count(), 3u);
    return recorder.ring(0).snapshot();
  };

  const std::vector<obs::FlightEvent> bare = ledger(nullptr);
  EXPECT_EQ(bare, expected);
  obs::SchedulerProbe probe;
  EXPECT_EQ(ledger(&probe), bare);
  EXPECT_EQ(probe.grants(), 3u);
  EXPECT_EQ(probe.rejects(), 2u);  // the pre-filtered request never reaches it
}

}  // namespace
}  // namespace ftsched
