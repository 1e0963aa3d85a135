#include "obs/flight_decoder.hpp"

#include <algorithm>
#include <initializer_list>
#include <istream>
#include <limits>
#include <string>

namespace ftsched::obs {

namespace {

/// Outcome of looking up one unsigned field.
enum class Field : std::uint8_t { kOk, kMissing, kOverflow };

/// Finds `"key":` in a flat one-line JSON object and parses the unsigned
/// integer that follows. The dump writer emits exactly this shape (no
/// spaces, no nesting), so plain string scanning is both sufficient and
/// byte-for-byte deterministic. A value that does not fit 64 bits is
/// kOverflow, never wrapped.
Field find_u64(const std::string& line, std::string_view key,
               std::uint64_t& out) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return Field::kMissing;
  std::size_t i = at + needle.size();
  if (i >= line.size() || line[i] < '0' || line[i] > '9') {
    return Field::kMissing;
  }
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
    const auto digit = static_cast<std::uint64_t>(line[i] - '0');
    if (value > (kMax - digit) / 10) return Field::kOverflow;
    value = value * 10 + digit;
    ++i;
  }
  out = value;
  return Field::kOk;
}

/// One unsigned field to read, and the largest value the field it is
/// stored in can hold.
struct U64Field {
  std::string_view key;
  std::uint64_t* out;
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
};

/// Reads each field of `line` into its slot. Returns the empty string on
/// success, else what is wrong with the first bad field: missing, longer
/// than 64 bits, or above its `max`.
std::string read_fields(const std::string& line,
                        std::initializer_list<U64Field> fields) {
  for (const U64Field& f : fields) {
    switch (find_u64(line, f.key, *f.out)) {
      case Field::kMissing:
        return "missing field '" + std::string(f.key) + "'";
      case Field::kOverflow:
        return "field '" + std::string(f.key) + "' overflows 64 bits";
      case Field::kOk:
        break;
    }
    if (*f.out > f.max) {
      return "field '" + std::string(f.key) + "' = " +
             std::to_string(*f.out) + " exceeds " + std::to_string(f.max);
    }
  }
  return {};
}

/// Same, for a quoted string value.
bool find_string(const std::string& line, std::string_view key,
                 std::string& out) {
  const std::string needle = "\"" + std::string(key) + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string::npos) return false;
  out = line.substr(begin, end - begin);
  return true;
}

bool blank(const std::string& line) {
  return line.find_first_not_of(" \t\r\n") == std::string::npos;
}

}  // namespace

Result<FlightDump> read_flight_jsonl(std::istream& is) {
  FlightDump dump;
  std::string line;
  bool have_header = false;
  std::size_t line_no = 0;
  constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  const auto at_line = [&](const std::string& what) {
    return Result<FlightDump>::error("flight dump: " + what + " at line " +
                                     std::to_string(line_no));
  };
  while (std::getline(is, line)) {
    ++line_no;
    if (blank(line)) continue;
    if (!have_header) {
      std::string type;
      if (!find_string(line, "type", type) || type != "flight_recorder") {
        return Result<FlightDump>::error(
            "flight dump: first line is not a flight_recorder header");
      }
      std::uint64_t version = 0;
      std::uint64_t rings = 0;
      const std::string bad = read_fields(
          line, {{"version", &version, kU32Max},
                 {"rings", &rings, kU32Max},
                 {"capacity", &dump.capacity},
                 {"recorded", &dump.recorded},
                 {"dropped", &dump.dropped}});
      if (!bad.empty()) return at_line("header " + bad);
      if (version != 1) {
        return Result<FlightDump>::error(
            "flight dump: unsupported format version");
      }
      dump.version = static_cast<std::uint32_t>(version);
      dump.rings = static_cast<std::uint32_t>(rings);
      have_header = true;
      continue;
    }
    FlightRecord record;
    std::uint64_t ring = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    std::string kind;
    const std::string bad = read_fields(
        line, {{"ring", &ring, kU32Max},
               {"req", &record.event.req},
               {"t", &record.event.t},
               {"a", &a, std::numeric_limits<std::uint8_t>::max()},
               {"b", &b, std::numeric_limits<std::uint16_t>::max()},
               {"c", &c, kU32Max}});
    if (!bad.empty()) return at_line("malformed event: " + bad);
    if (!find_string(line, "kind", kind)) {
      return at_line("malformed event: missing field 'kind'");
    }
    if (ring >= dump.rings) {
      return at_line("event ring " + std::to_string(ring) +
                     " is not below the header's rings = " +
                     std::to_string(dump.rings));
    }
    if (!flight_kind_from_string(kind, record.event.kind)) {
      return Result<FlightDump>::error("flight dump: unknown event kind '" +
                                       kind + "' at line " +
                                       std::to_string(line_no));
    }
    record.ring = static_cast<std::uint32_t>(ring);
    record.event.a = static_cast<std::uint8_t>(a);
    record.event.b = static_cast<std::uint16_t>(b);
    record.event.c = static_cast<std::uint32_t>(c);
    dump.records.push_back(record);
  }
  if (!have_header) {
    return Result<FlightDump>::error("flight dump: empty input");
  }
  return dump;
}

std::vector<CircuitTimeline> stitch_timelines(
    const std::vector<FlightRecord>& records) {
  // Stable sort by request id: within one request, dump order is preserved.
  // A request's events all come from the one ring that ran its repetition,
  // so that order is chronological regardless of how many rings exist.
  std::vector<std::size_t> order(records.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t lhs, std::size_t rhs) {
                     return records[lhs].event.req < records[rhs].event.req;
                   });

  std::vector<CircuitTimeline> timelines;
  for (const std::size_t i : order) {
    const FlightEvent& event = records[i].event;
    if (timelines.empty() || timelines.back().req != event.req) {
      timelines.push_back(CircuitTimeline{event.req, {}});
    }
    timelines.back().events.push_back(event);
  }
  return timelines;
}

std::vector<CircuitTimeline> stitch_timelines(const FlightRecorder& recorder) {
  std::vector<FlightRecord> records;
  for (std::size_t k = 0; k < recorder.ring_count(); ++k) {
    for (const FlightEvent& event : recorder.ring(k).snapshot()) {
      records.push_back(FlightRecord{static_cast<std::uint32_t>(k), event});
    }
  }
  return stitch_timelines(records);
}

SloSummary summarize_slo(const std::vector<CircuitTimeline>& timelines) {
  SloSummary slo;
  for (const CircuitTimeline& timeline : timelines) {
    ++slo.circuits;
    bool saw_requested = false;
    bool saw_granted = false;
    std::uint64_t requested_at = 0;
    std::uint64_t first_granted_at = 0;
    bool revocation_pending = false;
    std::uint64_t revoked_at = 0;
    std::uint64_t retries = 0;
    for (const FlightEvent& event : timeline.events) {
      switch (event.kind) {
        case FlightEventKind::kRequested:
          if (!saw_requested) {
            saw_requested = true;
            requested_at = event.t;
          }
          break;
        case FlightEventKind::kGranted:
          if (!saw_granted) {
            saw_granted = true;
            first_granted_at = event.t;
          }
          break;
        case FlightEventKind::kRejected:
          break;
        case FlightEventKind::kRevoked:
          ++slo.revocations;
          revocation_pending = true;
          revoked_at = event.t;
          break;
        case FlightEventKind::kRetryEnqueued:
          ++slo.retries;
          ++retries;
          break;
        case FlightEventKind::kRetryShed:
          ++slo.shed;
          break;
        case FlightEventKind::kRecovered:
          ++slo.recoveries;
          if (revocation_pending) {
            slo.recovery_time.push_back(
                static_cast<double>(event.t - revoked_at));
            revocation_pending = false;
          }
          break;
        case FlightEventKind::kClosed:
          ++slo.closed;
          break;
      }
    }
    if (saw_granted) {
      ++slo.granted;
      if (saw_requested) {
        slo.admission_latency.push_back(
            static_cast<double>(first_granted_at - requested_at));
      }
    } else {
      ++slo.never_granted;
    }
    slo.retry_count.push_back(static_cast<double>(retries));
  }
  return slo;
}

void export_slo_metrics(const SloSummary& slo, MetricsRegistry& registry,
                        double horizon) {
  FT_REQUIRE(horizon >= 0.0);
  registry.counter("slo.circuits").add(slo.circuits);
  registry.counter("slo.granted").add(slo.granted);
  registry.counter("slo.never_granted").add(slo.never_granted);
  registry.counter("slo.revocations").add(slo.revocations);
  registry.counter("slo.recoveries").add(slo.recoveries);
  registry.counter("slo.closed").add(slo.closed);
  registry.counter("slo.shed").add(slo.shed);
  registry.counter("slo.retries").add(slo.retries);
  Histogram& admission =
      registry.histogram("slo.admission_latency", 0.0, horizon + 1.0, 32);
  for (const double v : slo.admission_latency) admission.observe(v);
  Histogram& recovery =
      registry.histogram("slo.recovery_time", 0.0, horizon + 1.0, 32);
  for (const double v : slo.recovery_time) recovery.observe(v);
  Histogram& retries =
      registry.histogram("slo.retries_per_circuit", 0.0, 32.0, 32);
  for (const double v : slo.retry_count) retries.observe(v);
}

}  // namespace ftsched::obs
