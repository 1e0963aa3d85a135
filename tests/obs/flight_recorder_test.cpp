// Flight recorder + decoder tests: ring wrap-around semantics (newest events
// kept, drops counted), the sink's null-guarded ledger event, dump format
// v1 round-trips, timeline stitching invariance across ring layouts, and the
// SLO layer's latency math.
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/flight_decoder.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "util/json.hpp"

namespace ftsched::obs {
namespace {

TEST(FlightRing, RecordsInOrderBelowCapacity) {
  FlightRing ring(8);
  ring.record(FlightEvent::requested(1, 10));
  ring.record(FlightEvent::granted(1, 11, 2));
  ring.record(FlightEvent::closed(1, 20));
  EXPECT_EQ(ring.total(), 3u);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
  const std::vector<FlightEvent> events = ring.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], FlightEvent::requested(1, 10));
  EXPECT_EQ(events[1], FlightEvent::granted(1, 11, 2));
  EXPECT_EQ(events[2], FlightEvent::closed(1, 20));
}

TEST(FlightRing, WrapAroundKeepsNewestAndCountsDrops) {
  FlightRing ring(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    ring.record(FlightEvent::requested(i, i));
  }
  EXPECT_EQ(ring.total(), 6u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 2u);  // the two oldest were overwritten
  const std::vector<FlightEvent> events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].req, i + 2) << "oldest retained must be event 2";
  }
}

TEST(FlightRing, ClearResetsTotalsAndDrops) {
  FlightRing ring(2);
  ring.record(FlightEvent::requested(0, 0));
  ring.record(FlightEvent::requested(1, 1));
  ring.record(FlightEvent::requested(2, 2));
  EXPECT_EQ(ring.dropped(), 1u);
  ring.clear();
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(SinkLedger, RecordsOnlyWhenAttachedAndIntoItsLane) {
  Sink sink{.id_base = 100};
  EXPECT_FALSE(sink.recording());
  sink.ledger(FlightEvent::requested(sink.id(1), 2));  // detached: no-op

  FlightRecorder recorder(2, 4);
  sink.flight = &recorder;
  sink.lane = 1;
  EXPECT_TRUE(sink.recording());
  sink.ledger(FlightEvent::requested(sink.id(1), 2));
  EXPECT_EQ(recorder.ring(0).total(), 0u);
  ASSERT_EQ(recorder.ring(1).total(), 1u);
  EXPECT_EQ(recorder.ring(1).snapshot()[0], FlightEvent::requested(101, 2));
}

TEST(FlightEventKinds, NamesRoundTripThroughParser) {
  for (std::uint8_t i = 0; i < 8; ++i) {
    const auto kind = static_cast<FlightEventKind>(i);
    FlightEventKind parsed = FlightEventKind::kRequested;
    ASSERT_TRUE(flight_kind_from_string(to_string(kind), parsed))
        << to_string(kind);
    EXPECT_EQ(parsed, kind);
  }
  FlightEventKind ignored = FlightEventKind::kRequested;
  EXPECT_FALSE(flight_kind_from_string("NOT_A_KIND", ignored));
}

TEST(FlightRecorder, ExportsDropCountersThroughRegistry) {
  FlightRecorder recorder(2, /*capacity=*/2);
  for (std::uint64_t i = 0; i < 5; ++i) {
    recorder.ring(0).record(FlightEvent::requested(i, i));
  }
  recorder.ring(1).record(FlightEvent::requested(9, 9));
  EXPECT_EQ(recorder.recorded(), 6u);
  EXPECT_EQ(recorder.dropped(), 3u);

  MetricsRegistry registry;
  recorder.export_metrics(registry);
  EXPECT_EQ(registry.counter("obs.flight.rings").value(), 2u);
  EXPECT_EQ(registry.counter("obs.flight.recorded").value(), 6u);
  EXPECT_EQ(registry.counter("obs.flight.dropped").value(), 3u);
  std::ostringstream os;
  registry.write_jsonl(os);
  EXPECT_NE(os.str().find("obs.flight.dropped"), std::string::npos);
}

TEST(FlightDump, EveryLineIsStrictJson) {
  FlightRecorder recorder(2);
  recorder.ring(0).record(FlightEvent::requested(3, 0));
  recorder.ring(0).record(FlightEvent::rejected(3, 0, 2, 1));
  recorder.ring(1).record(FlightEvent::granted(4, 7, 2));
  recorder.ring(1).record(FlightEvent::revoked(4, 9, 1, 3, 12));
  std::ostringstream os;
  recorder.write_jsonl(os);
  const std::string text = os.str();
  std::istringstream in(text);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line); ++lines) {
    EXPECT_EQ(parse_json(line).message(), "") << "line: " << line;
  }
  EXPECT_EQ(lines, 5u);  // header + four events
  EXPECT_EQ(text.rfind("{\"type\":\"flight_recorder\",\"version\":1", 0), 0u);
}

TEST(FlightDump, ReadBackRoundTripsHeaderAndEvents) {
  FlightRecorder recorder(2, /*capacity=*/4);
  recorder.ring(0).record(FlightEvent::requested(10, 0));
  recorder.ring(0).record(FlightEvent::granted(10, 2, 1));
  recorder.ring(1).record(FlightEvent::retry_enqueued(11, 5, 3, true));
  recorder.ring(1).record(FlightEvent::retry_shed(12, 6, kShedBudget));

  std::ostringstream os;
  recorder.write_jsonl(os);
  std::istringstream is(os.str());
  const auto dump = read_flight_jsonl(is);
  ASSERT_TRUE(dump.ok()) << dump.message();
  EXPECT_EQ(dump.value().version, 1u);
  EXPECT_EQ(dump.value().rings, 2u);
  EXPECT_EQ(dump.value().capacity, 4u);
  EXPECT_EQ(dump.value().recorded, 4u);
  EXPECT_EQ(dump.value().dropped, 0u);
  const std::vector<FlightRecord>& records = dump.value().records;
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0], (FlightRecord{0, FlightEvent::requested(10, 0)}));
  EXPECT_EQ(records[1], (FlightRecord{0, FlightEvent::granted(10, 2, 1)}));
  EXPECT_EQ(records[2],
            (FlightRecord{1, FlightEvent::retry_enqueued(11, 5, 3, true)}));
  EXPECT_EQ(records[3],
            (FlightRecord{1, FlightEvent::retry_shed(12, 6, kShedBudget)}));
}

TEST(FlightDump, DecoderRejectsMalformedInput) {
  const auto parse = [](std::string text) {
    std::istringstream is(std::move(text));
    return read_flight_jsonl(is);
  };
  EXPECT_FALSE(parse("").ok());
  EXPECT_FALSE(parse("{\"type\":\"metrics\"}\n").ok());
  EXPECT_FALSE(
      parse("{\"type\":\"flight_recorder\",\"version\":2,\"rings\":1,"
            "\"capacity\":1,\"recorded\":0,\"dropped\":0}\n")
          .ok());
  const std::string header =
      "{\"type\":\"flight_recorder\",\"version\":1,\"rings\":1,"
      "\"capacity\":4,\"recorded\":1,\"dropped\":0}\n";
  EXPECT_FALSE(parse(header + "{\"ring\":0,\"req\":1}\n").ok());
  EXPECT_FALSE(parse(header +
                     "{\"ring\":0,\"req\":1,\"t\":0,\"kind\":\"BOGUS\","
                     "\"a\":0,\"b\":0,\"c\":0}\n")
                   .ok());
  EXPECT_TRUE(parse(header +
                    "{\"ring\":0,\"req\":1,\"t\":0,\"kind\":\"CLOSED\","
                    "\"a\":0,\"b\":0,\"c\":0}\n")
                  .ok());

  // Values the decoder cannot store are rejected with the line number,
  // never wrapped or narrowed.
  const auto rejects_at_line = [&](const std::string& text, int line) {
    const auto result = parse(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_NE(result.message().find("at line " + std::to_string(line)),
              std::string::npos)
        << result.message();
  };
  const auto event = [](const std::string& ring, const std::string& req,
                        const std::string& a, const std::string& b,
                        const std::string& c) {
    return "{\"ring\":" + ring + ",\"req\":" + req +
           ",\"t\":0,\"kind\":\"CLOSED\",\"a\":" + a + ",\"b\":" + b +
           ",\"c\":" + c + "}\n";
  };
  // 2^64 + 1 would wrap to 1, a valid version.
  rejects_at_line(
      "{\"type\":\"flight_recorder\",\"version\":18446744073709551617,"
      "\"rings\":1,\"capacity\":4,\"recorded\":1,\"dropped\":0}\n",
      1);
  // rings past 32 bits.
  rejects_at_line(
      "{\"type\":\"flight_recorder\",\"version\":1,\"rings\":4294967297,"
      "\"capacity\":4,\"recorded\":1,\"dropped\":0}\n",
      1);
  // A 64-bit field one past its maximum.
  rejects_at_line(header + event("0", "18446744073709551616", "0", "0", "0"),
                  2);
  // Narrowed fields: ring (32-bit), a (8-bit), b (16-bit), c (32-bit).
  rejects_at_line(header + event("4294967296", "1", "0", "0", "0"), 2);
  rejects_at_line(header + event("0", "1", "256", "0", "0"), 2);
  rejects_at_line(header + event("0", "1", "0", "65536", "0"), 2);
  rejects_at_line(header + event("0", "1", "0", "0", "4294967296"), 2);
  // A ring the header does not declare.
  rejects_at_line(header + event("0", "1", "0", "0", "0") +
                      event("1", "2", "0", "0", "0"),
                  3);
  // The largest storable values still parse.
  EXPECT_TRUE(parse(header + event("0", "18446744073709551615", "255",
                                   "65535", "4294967295"))
                  .ok());

  // Each line is strict JSON holding exactly the v1 members: no trailing
  // text, no repeated or unknown key, and integers written as integers.
  const std::string closed =
      "{\"ring\":0,\"req\":12,\"t\":0,\"kind\":\"CLOSED\",\"a\":0,"
      "\"b\":0,\"c\":0}";
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string line = closed;
    line.replace(line.find(from), from.size(), to);
    return header + line + "\n";
  };
  rejects_at_line(header + closed + "x\n", 2);
  rejects_at_line(with("\"req\":12", "\"req\":12,\"req\":12"), 2);
  rejects_at_line(with("\"req\":12", "\"req\":12x"), 2);
  rejects_at_line(with("\"req\":12", "\"req\":1.5"), 2);
  rejects_at_line(with("\"c\":0", "\"c\":0,\"d\":0"), 2);
  // Whitespace JSON allows is not an error.
  const auto spaced = parse(
      header +
      "{\"ring\": 0, \"req\": 12, \"t\": 3, \"kind\": \"CLOSED\", "
      "\"a\": 0, \"b\": 0, \"c\": 0}\n");
  ASSERT_TRUE(spaced.ok()) << spaced.message();
  ASSERT_EQ(spaced.value().records.size(), 1u);
  EXPECT_EQ(spaced.value().records[0].event.req, 12u);
  EXPECT_EQ(spaced.value().records[0].event.t, 3u);
}

TEST(FlightStitch, SortsByRequestAndKeepsPerRequestOrder) {
  // Two circuits whose events interleave across two rings; stitching must
  // group by ascending request id while preserving each request's order.
  const std::vector<FlightRecord> records = {
      {0, FlightEvent::requested(7, 0)},
      {1, FlightEvent::requested(3, 0)},
      {0, FlightEvent::granted(7, 1, 2)},
      {1, FlightEvent::granted(3, 4, 1)},
      {1, FlightEvent::closed(3, 9)},
  };
  const std::vector<CircuitTimeline> timelines = stitch_timelines(records);
  ASSERT_EQ(timelines.size(), 2u);
  EXPECT_EQ(timelines[0].req, 3u);
  ASSERT_EQ(timelines[0].events.size(), 3u);
  EXPECT_EQ(timelines[0].events[2].kind, FlightEventKind::kClosed);
  EXPECT_EQ(timelines[1].req, 7u);
  ASSERT_EQ(timelines[1].events.size(), 2u);
}

TEST(FlightStitch, RingLayoutDoesNotChangeTimelines) {
  // The thread-count-invariance property at unit scale: the same per-request
  // event streams spread over one ring vs two rings stitch identically.
  const std::vector<FlightEvent> a = {FlightEvent::requested(1, 0),
                                      FlightEvent::granted(1, 1, 1)};
  const std::vector<FlightEvent> b = {FlightEvent::requested(2, 0),
                                      FlightEvent::rejected(2, 0, 1, 0)};
  FlightRecorder one(1);
  for (const FlightEvent& e : a) one.ring(0).record(e);
  for (const FlightEvent& e : b) one.ring(0).record(e);
  FlightRecorder two(2);
  for (const FlightEvent& e : b) two.ring(1).record(e);  // swapped rings
  for (const FlightEvent& e : a) two.ring(0).record(e);
  EXPECT_EQ(stitch_timelines(one), stitch_timelines(two));
}

TEST(FlightSlo, DerivesAdmissionRecoveryAndRetryCounts) {
  // Circuit 1: granted at once, revoked at 10, recovered at 14, closed.
  // Circuit 2: rejected, retried, granted at 5. Circuit 3: never granted.
  const std::vector<FlightRecord> records = {
      {0, FlightEvent::requested(1, 0)},
      {0, FlightEvent::granted(1, 0, 1)},
      {0, FlightEvent::revoked(1, 10, 0, 0, 0)},
      {0, FlightEvent::retry_enqueued(1, 11, 1, true)},
      {0, FlightEvent::recovered(1, 14, 4)},
      {0, FlightEvent::closed(1, 20)},
      {0, FlightEvent::requested(2, 0)},
      {0, FlightEvent::rejected(2, 0, 1, 0)},
      {0, FlightEvent::retry_enqueued(2, 1, 1, false)},
      {0, FlightEvent::retry_enqueued(2, 3, 2, false)},
      {0, FlightEvent::granted(2, 5, 2)},
      {0, FlightEvent::requested(3, 0)},
      {0, FlightEvent::rejected(3, 0, 1, 0)},
      {0, FlightEvent::retry_shed(3, 2, kShedHorizon)},
  };
  const SloSummary slo = summarize_slo(stitch_timelines(records));
  EXPECT_EQ(slo.circuits, 3u);
  EXPECT_EQ(slo.granted, 2u);
  EXPECT_EQ(slo.never_granted, 1u);
  EXPECT_EQ(slo.revocations, 1u);
  EXPECT_EQ(slo.recoveries, 1u);
  EXPECT_EQ(slo.closed, 1u);
  EXPECT_EQ(slo.shed, 1u);
  EXPECT_EQ(slo.retries, 3u);
  ASSERT_EQ(slo.admission_latency.size(), 2u);
  EXPECT_DOUBLE_EQ(slo.admission_latency[0], 0.0);  // circuit 1: instant
  EXPECT_DOUBLE_EQ(slo.admission_latency[1], 5.0);  // circuit 2: 0 → 5
  ASSERT_EQ(slo.recovery_time.size(), 1u);
  EXPECT_DOUBLE_EQ(slo.recovery_time[0], 4.0);  // 10 → 14
  ASSERT_EQ(slo.retry_count.size(), 3u);
  EXPECT_DOUBLE_EQ(slo.retry_count[1], 2.0);  // circuit 2 retried twice
}

TEST(FlightSlo, ExportEmitsHistogramsWithPercentiles) {
  SloSummary slo;
  slo.circuits = 2;
  slo.granted = 2;
  slo.admission_latency = {1.0, 3.0};
  slo.recovery_time = {4.0};
  slo.retry_count = {0.0, 2.0};
  MetricsRegistry registry;
  export_slo_metrics(slo, registry, /*horizon=*/100.0);
  std::ostringstream os;
  registry.write_jsonl(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("slo.admission_latency"), std::string::npos);
  EXPECT_NE(text.find("slo.recovery_time"), std::string::npos);
  EXPECT_NE(text.find("slo.retries_per_circuit"), std::string::npos);
  EXPECT_NE(text.find("\"p50\":"), std::string::npos);
  EXPECT_NE(text.find("\"p99\":"), std::string::npos);
}

}  // namespace
}  // namespace ftsched::obs
