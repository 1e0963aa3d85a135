#include "obs/flight_decoder.hpp"

#include <algorithm>
#include <initializer_list>
#include <istream>
#include <limits>
#include <optional>
#include <string>

#include "util/json.hpp"

namespace ftsched::obs {

namespace {

/// One unsigned field of a dump line, and the largest value the field it is
/// stored in can hold.
struct U64Field {
  std::string_view key;
  std::uint64_t* out;
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
};

/// Reads one parsed dump line into its slots. The line must be an object
/// holding exactly the format-v1 members: every field in `fields`, each a
/// plain unsigned integer no larger than its `max`, and the string member
/// `text_key`. Returns the empty string on success, else what is wrong.
std::string read_members(const Json& line,
                         std::initializer_list<U64Field> fields,
                         std::string_view text_key, std::string& text) {
  if (line.type != Json::Type::kObject) return "line is not a JSON object";
  for (const auto& member : line.object) {
    const std::string& key = member.first;
    if (key != text_key &&
        std::none_of(fields.begin(), fields.end(),
                     [&](const U64Field& f) { return f.key == key; })) {
      return "unknown key '" + json_escape(key) + "'";
    }
  }
  for (const U64Field& f : fields) {
    const Json* value = line.find(f.key);
    if (value == nullptr) return "missing field '" + std::string(f.key) + "'";
    const std::optional<std::uint64_t> number = value->as_u64();
    if (!number) {
      return "field '" + std::string(f.key) +
             "' is not an unsigned 64-bit integer";
    }
    if (*number > f.max) {
      return "field '" + std::string(f.key) + "' = " +
             std::to_string(*number) + " exceeds " + std::to_string(f.max);
    }
    *f.out = *number;
  }
  const Json* value = line.find(text_key);
  if (value == nullptr || value->type != Json::Type::kString) {
    return "missing field '" + std::string(text_key) + "'";
  }
  text = value->str;
  return {};
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
    if (line.find_first_not_of(" \t\r\n") == std::string::npos) continue;
    const Result<Json> parsed = parse_json(line, line_no);
    if (!parsed.ok()) {
      return Result<FlightDump>::error("flight dump: malformed JSON at " +
                                       parsed.message());
    }
    const Json& json = parsed.value();
    if (!have_header) {
      const Json* type = json.find("type");
      if (type == nullptr || type->type != Json::Type::kString ||
          type->str != "flight_recorder") {
        return at_line("first line is not a flight_recorder header");
      }
      std::uint64_t version = 0;
      std::uint64_t rings = 0;
      std::string type_name;
      const std::string bad = read_members(
          json,
          {{"version", &version, kU32Max},
           {"rings", &rings, kU32Max},
           {"capacity", &dump.capacity},
           {"recorded", &dump.recorded},
           {"dropped", &dump.dropped}},
          "type", type_name);
      if (!bad.empty()) return at_line("header " + bad);
      if (version != 1) {
        return at_line("unsupported format version " +
                       std::to_string(version));
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
    const std::string bad = read_members(
        json,
        {{"ring", &ring, kU32Max},
         {"req", &record.event.req},
         {"t", &record.event.t},
         {"a", &a, std::numeric_limits<std::uint8_t>::max()},
         {"b", &b, std::numeric_limits<std::uint16_t>::max()},
         {"c", &c, kU32Max}},
        "kind", kind);
    if (!bad.empty()) return at_line("malformed event: " + bad);
    if (ring >= dump.rings) {
      return at_line("event ring " + std::to_string(ring) +
                     " is not below the header's rings = " +
                     std::to_string(dump.rings));
    }
    if (!flight_kind_from_string(kind, record.event.kind)) {
      return at_line("unknown event kind '" + json_escape(kind) + "'");
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

std::optional<std::uint64_t> admission_latency(
    const CircuitTimeline& timeline) {
  std::optional<std::uint64_t> requested_at;
  for (const FlightEvent& event : timeline.events) {
    if (event.kind == FlightEventKind::kRequested && !requested_at) {
      requested_at = event.t;
    } else if (event.kind == FlightEventKind::kGranted) {
      if (!requested_at) return std::nullopt;
      return event.t - *requested_at;
    }
  }
  return std::nullopt;
}

SloSummary summarize_slo(const std::vector<CircuitTimeline>& timelines) {
  SloSummary slo;
  for (const CircuitTimeline& timeline : timelines) {
    ++slo.circuits;
    bool saw_granted = false;
    bool revocation_pending = false;
    std::uint64_t revoked_at = 0;
    std::uint64_t retries = 0;
    for (const FlightEvent& event : timeline.events) {
      switch (event.kind) {
        case FlightEventKind::kGranted:
          saw_granted = true;
          break;
        case FlightEventKind::kRequested:
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
      if (const auto latency = admission_latency(timeline)) {
        slo.admission_latency.push_back(static_cast<double>(*latency));
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
