// Revocation and retry order must be identical across identical runs.
//
// ftlint's unordered-iteration rule forbids walking unordered containers in
// deterministic subsystems; these tests pin the behavior that rule protects:
// ConnectionManager::fail_cable revokes in ascending ConnectionId (= grant)
// order, and a full FabricManager outage scenario replays bit-identically —
// same stats, same latency vectors, same trace event stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "core/connection_manager.hpp"
#include "fault/fabric_manager.hpp"
#include "linkstate/faults.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"

namespace ftsched {
namespace {

std::vector<Request> crossing_requests() {
  // All sources under leaf switch 0 of FT(2, 4): every circuit ascends
  // through one of leaf 0's up-cables.
  return {{0, 4}, {1, 9}, {2, 14}, {3, 5}};
}

std::vector<ConnectionId> revocation_ids() {
  const FatTree tree = FatTree::symmetric(2, 4);
  ConnectionManager manager(tree);
  for (const Request& request : crossing_requests()) {
    EXPECT_TRUE(manager.open(request).has_value());
  }
  std::vector<ConnectionId> ids;
  for (std::uint32_t port = 0; port < 4; ++port) {
    for (const Revocation& v : manager.fail_cable(CableId{0, 0, port})) {
      ids.push_back(v.id);
    }
  }
  EXPECT_EQ(manager.active_count(), 0u);
  return ids;
}

TEST(RevocationDeterminism, FailCableRevokesInGrantOrder) {
  const std::vector<ConnectionId> ids = revocation_ids();
  ASSERT_EQ(ids.size(), 4u);
  // Within each cable's sweep ids ascend; across the whole scenario every
  // open circuit is revoked exactly once.
  std::vector<ConnectionId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<ConnectionId>{1, 2, 3, 4}));
}

TEST(RevocationDeterminism, IdenticalAcrossRuns) {
  EXPECT_EQ(revocation_ids(), revocation_ids());
}

struct OutageReplay {
  FabricStats stats;
  std::size_t open = 0;
  std::string trace;  ///< serialized event stream, order-sensitive
};

OutageReplay replay_outage() {
  const FatTree tree = FatTree::symmetric(2, 4);
  Simulator sim;
  obs::TraceWriter tracer;
  FabricOptions options;
  options.retry = RetryPolicy::fixed(3, 10);
  options.deep_verify = true;
  obs::Sink sink{.trace = &tracer};
  options.sink = &sink;
  FabricManager fabric(tree, sim, options);

  std::vector<FaultEvent> events;
  for (std::uint32_t port = 0; port < 4; ++port) {
    events.push_back(FaultEvent{5, CableId{0, 0, port}, true});
    events.push_back(FaultEvent{20, CableId{0, 0, port}, false});
  }
  auto timeline = FaultTimeline::from_script(std::move(events));
  FT_REQUIRE(timeline.ok());
  fabric.install(std::move(timeline).value());
  fabric.submit(crossing_requests(), 0);
  sim.run();

  OutageReplay out;
  out.stats = fabric.stats();
  out.open = fabric.open_circuits();
  std::ostringstream os;
  tracer.write(os);
  out.trace = os.str();
  return out;
}

TEST(RevocationDeterminism, OutageScenarioReplaysBitIdentically) {
  const OutageReplay a = replay_outage();
  const OutageReplay b = replay_outage();
  EXPECT_EQ(a.stats.victims, b.stats.victims);
  EXPECT_EQ(a.stats.grants, b.stats.grants);
  EXPECT_EQ(a.stats.retries, b.stats.retries);
  EXPECT_EQ(a.stats.recovered, b.stats.recovered);
  EXPECT_EQ(a.stats.recovery_latency, b.stats.recovery_latency);
  EXPECT_EQ(a.stats.retry_latency, b.stats.retry_latency);
  EXPECT_EQ(a.open, b.open);
  // The trace captures event ORDER, not just totals: revocations and
  // retry grants must replay in the same sequence.
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_GT(a.stats.victims, 0u);
}

}  // namespace
}  // namespace ftsched
