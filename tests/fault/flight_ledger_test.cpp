// Lifecycle-ledger integration tests: a FabricManager run under scripted
// faults must leave a flight-recorder ledger whose per-circuit timelines
// agree with the aggregate FabricStats (every grant preceded by a request,
// every victim revoked, recovery counts matching), the ledger must round-
// trip through the JSONL dump bit for bit, and a degradation run's stitched
// timelines must be identical at 1 and 8 execution threads.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "fault/degradation.hpp"
#include "fault/fabric_manager.hpp"
#include "linkstate/faults.hpp"
#include "obs/flight_decoder.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/sink.hpp"

namespace ftsched {
namespace {

std::vector<Request> crossing_requests() {
  // All sources under leaf switch 0 of FT(2, 4): every circuit ascends
  // through one of leaf 0's up-cables, so failing all four revokes all four.
  return {{0, 4}, {1, 9}, {2, 14}, {3, 5}};
}

struct LedgerRun {
  FabricStats stats;
  std::vector<obs::CircuitTimeline> timelines;
  obs::SloSummary slo;
};

LedgerRun run_scripted_outage(obs::FlightRecorder& recorder,
                              std::uint64_t flight_base) {
  const FatTree tree = FatTree::symmetric(2, 4);
  Simulator sim;
  FabricOptions options;
  options.retry = RetryPolicy::fixed(3, 10);
  options.deep_verify = true;
  obs::Sink sink{.flight = &recorder, .id_base = flight_base};
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

  LedgerRun out;
  out.stats = fabric.stats();
  out.timelines = obs::stitch_timelines(recorder);
  out.slo = obs::summarize_slo(out.timelines);
  return out;
}

TEST(FlightLedger, TimelinesAgreeWithFabricStats) {
  obs::FlightRecorder recorder(1);
  const LedgerRun run = run_scripted_outage(recorder, /*flight_base=*/1000);

  // One circuit per submitted request, ids in the configured namespace.
  ASSERT_EQ(run.timelines.size(), 4u);
  for (std::size_t i = 0; i < run.timelines.size(); ++i) {
    const obs::CircuitTimeline& t = run.timelines[i];
    EXPECT_EQ(t.req, 1000u + i);
    ASSERT_FALSE(t.events.empty());
    EXPECT_EQ(t.events.front().kind, obs::FlightEventKind::kRequested)
        << "circuit " << t.req << " must open with REQUESTED";
    // No event may precede the request; times never go backwards within the
    // grant→revoke→recover chain recorded by one ring.
    for (const obs::FlightEvent& e : t.events) {
      EXPECT_GE(e.t, t.events.front().t);
    }
  }

  // The ledger's aggregates are the stats, circuit by circuit.
  EXPECT_EQ(run.slo.circuits, run.stats.submitted);
  EXPECT_EQ(run.slo.revocations, run.stats.victims);
  EXPECT_EQ(run.slo.recoveries, run.stats.recovered);
  EXPECT_EQ(run.slo.retries, run.stats.retries);
  EXPECT_EQ(run.slo.never_granted, 0u);
  EXPECT_GT(run.stats.victims, 0u) << "outage script must revoke circuits";
  EXPECT_EQ(run.slo.recovery_time.size(), run.stats.recovery_latency.size());
}

TEST(FlightLedger, DumpRoundTripPreservesTimelines) {
  obs::FlightRecorder recorder(1);
  const LedgerRun run = run_scripted_outage(recorder, /*flight_base=*/0);

  std::ostringstream os;
  recorder.write_jsonl(os);
  std::istringstream is(os.str());
  const auto dump = obs::read_flight_jsonl(is);
  ASSERT_TRUE(dump.ok()) << dump.message();
  EXPECT_EQ(dump.value().recorded, recorder.recorded());
  EXPECT_EQ(dump.value().dropped, 0u);
  EXPECT_EQ(obs::stitch_timelines(dump.value().records), run.timelines);
}

TEST(FlightLedger, ScriptedOutageReplaysIdentically) {
  obs::FlightRecorder a(1);
  obs::FlightRecorder b(1);
  EXPECT_EQ(run_scripted_outage(a, 7).timelines,
            run_scripted_outage(b, 7).timelines);
}

std::vector<obs::CircuitTimeline> degradation_timelines(std::size_t threads) {
  const FatTree tree = FatTree::symmetric(2, 4);
  obs::FlightRecorder recorder(threads);
  DegradationConfig config;
  config.repetitions = 8;
  config.seed = 2010;
  config.threads = threads;
  config.fault_rate = 0.5;
  config.horizon = 200;
  config.retry = RetryPolicy::backoff(1, 2.0, 64, 8);
  obs::Sink sink{.flight = &recorder};
  config.sink = &sink;
  run_degradation(tree, config);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_GT(recorder.recorded(), 0u);
  return obs::stitch_timelines(recorder);
}

TEST(FlightLedger, StitchedTimelinesAreThreadCountInvariant) {
  // Each repetition records into exactly one ring and ids are namespaced per
  // repetition, so the stitched union must be bit-identical no matter how
  // repetitions were spread over execution threads.
  const auto serial = degradation_timelines(1);
  const auto pooled = degradation_timelines(8);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, pooled);
}

}  // namespace
}  // namespace ftsched
