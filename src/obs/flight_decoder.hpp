// Flight-recorder decoder — dump parsing, timeline stitching, SLO layer.
//
// The recorder's JSONL dump (flight_recorder.hpp, format v1) is a flat bag
// of per-ring events; analysis wants per-circuit stories. The decoder reads
// a dump back, stitches events into per-request timelines (stable within a
// ring, sorted by request id across rings — so the stitched result is
// bit-identical at any execution thread count), and derives the lifecycle
// SLOs: admission latency (REQUESTED → first GRANTED), revocation-to-
// recovery time (each REVOKED → next RECOVERED), and retries per circuit.
// The SLO summary exports slo.* histograms through MetricsRegistry so
// percentiles travel the same path as every other metric.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "util/contracts.hpp"
#include "util/result.hpp"

namespace ftsched::obs {

/// One dump line: which ring recorded the event, plus the event itself.
struct FlightRecord {
  std::uint32_t ring = 0;
  FlightEvent event;

  friend bool operator==(const FlightRecord& lhs,
                         const FlightRecord& rhs) = default;
};

/// A parsed dump: the self-description header plus every retained event in
/// file order (ring-major, oldest first — exactly as written).
struct FlightDump {
  std::uint32_t version = 0;
  std::uint32_t rings = 0;
  std::uint64_t capacity = 0;
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::vector<FlightRecord> records;
};

/// Parses a format-v1 dump. Each non-blank line must be one JSON object
/// that parse_json (util/json.hpp) accepts, holding exactly the v1 members.
/// Fails (never aborts) on a missing/foreign header, an unsupported
/// version, an unknown event kind, a line that is not valid JSON, a missing,
/// repeated or unknown key, a field that is not a plain unsigned integer or
/// does not fit its slot (never narrowed or wrapped), or an event ring not
/// below the header's `rings` — dumps are post-mortem artifacts and may be
/// truncated or hand-edited. Errors past the header check name the line.
Result<FlightDump> read_flight_jsonl(std::istream& is);

/// Every event of one tracked request, in emission order.
struct CircuitTimeline {
  std::uint64_t req = 0;
  std::vector<FlightEvent> events;

  friend bool operator==(const CircuitTimeline& lhs,
                         const CircuitTimeline& rhs) = default;
};

/// Groups records by request id (ascending). Within one request, events
/// keep their dump order — a request is only ever recorded by the single
/// ring that ran its repetition, so per-request order is chronological and
/// the stitched timelines are identical no matter how repetitions were
/// spread over rings.
std::vector<CircuitTimeline> stitch_timelines(
    const std::vector<FlightRecord>& records);

/// Stitches straight from a live recorder (no dump round-trip).
std::vector<CircuitTimeline> stitch_timelines(const FlightRecorder& recorder);

/// First REQUESTED → first GRANTED ticks of one circuit; nullopt when it
/// was never granted or no REQUESTED event precedes its first grant.
std::optional<std::uint64_t> admission_latency(const CircuitTimeline& timeline);

/// Per-circuit SLO aggregates derived from stitched timelines.
struct SloSummary {
  std::uint64_t circuits = 0;       ///< distinct request ids seen
  std::uint64_t granted = 0;        ///< circuits granted at least once
  std::uint64_t never_granted = 0;  ///< circuits that never got a grant
  std::uint64_t revocations = 0;    ///< REVOKED events
  std::uint64_t recoveries = 0;     ///< RECOVERED events
  std::uint64_t closed = 0;         ///< CLOSED events
  std::uint64_t shed = 0;           ///< RETRY_SHED events
  std::uint64_t retries = 0;        ///< RETRY_ENQUEUED events

  /// REQUESTED → first GRANTED ticks, one sample per granted circuit that
  /// carries a REQUESTED event (0 for first-attempt grants).
  std::vector<double> admission_latency;
  /// REVOKED → next RECOVERED ticks, one sample per completed pair.
  std::vector<double> recovery_time;
  /// RETRY_ENQUEUED count per circuit, one sample per circuit.
  std::vector<double> retry_count;
};

SloSummary summarize_slo(const std::vector<CircuitTimeline>& timelines);

/// Exports slo.* counters and histograms. `horizon` bounds the latency
/// histograms ([0, horizon + 1), 32 bins — the fault.* convention).
void export_slo_metrics(const SloSummary& slo, MetricsRegistry& registry,
                        double horizon);

}  // namespace ftsched::obs
