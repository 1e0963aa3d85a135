// FlightRecorder — always-on, fixed-capacity ring buffers of circuit
// lifecycle events (the flight recorder / per-circuit ledger).
//
// Aggregate counters (fault.*, sched.*) say how MANY circuits were revoked;
// the flight recorder says WHICH request waited how long from admit → grant
// → revoke → retry → recover. Each event is a compact POD keyed by a stable
// request id (FabricManager's admission seq, namespaced per repetition by
// the caller), so a post-mortem dump can be stitched back into per-circuit
// timelines and SLO histograms.
//
// Recording discipline mirrors the null-probe path: emitters record through
// an obs::Sink (obs/sink.hpp), whose ledger event tests for an attached
// recorder before it touches a ring — one predicted branch when detached,
// zero allocation when recording (the ring overwrites its oldest slot once
// full and counts the drop). ftlint's flight-event-guard rule keeps raw
// ring record() calls out of src/core, src/fault, and src/linkstate.
//
// Threading: one ring per exec thread (FlightRecorder sizes itself to the
// pool's thread count); a ring is only ever written by its owning chunk, so
// recording needs no synchronization and dumps are deterministic at any
// thread width once stitched by request id.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace ftsched::obs {

/// Lifecycle stages of one tracked request, in the order the fabric emits
/// them. Values are the wire encoding of dump format v1 — append only.
enum class FlightEventKind : std::uint8_t {
  kRequested = 0,     ///< entered the fabric (FabricManager::submit)
  kGranted = 1,       ///< scheduler granted a circuit; b = ancestor level
  kRejected = 2,      ///< scheduler rejected; a = reason code, b = fail level
  kRevoked = 3,       ///< cable failure tore the circuit down; a/b/c = cable
  kRetryEnqueued = 4, ///< admitted to the retry queue; b = attempt, c = victim
  kRetryShed = 5,     ///< dropped instead of retried; a = shed cause
  kRecovered = 6,     ///< victim re-granted; c = revocation→re-grant ticks
  kClosed = 7,        ///< circuit released by close()
};

std::string_view to_string(FlightEventKind kind);

/// Parses a dump-format kind name; returns false on an unknown name.
bool flight_kind_from_string(std::string_view name, FlightEventKind& kind);

/// Shed causes carried in FlightEvent::a by kRetryShed.
enum : std::uint8_t {
  kShedQueueFull = 0,  ///< RetryQueue admission gate closed
  kShedBudget = 1,     ///< retry budget exhausted (permanent reject)
  kShedHorizon = 2,    ///< retry would land past the horizon (abandoned)
};

/// One compact binary lifecycle event (24 bytes). `t` is the DES tick the
/// event happened at (never a wall clock — determinism rules apply to every
/// emitter). The a/b/c payloads are kind-specific; see FlightEventKind.
struct FlightEvent {
  std::uint64_t req = 0;  ///< stable request id (rep-namespaced seq)
  std::uint64_t t = 0;    ///< simulated time, ticks
  std::uint32_t c = 0;
  std::uint16_t b = 0;
  FlightEventKind kind = FlightEventKind::kRequested;
  std::uint8_t a = 0;

  // Kind-checked constructors keep emitter call sites honest about which
  // payload slot means what.
  static constexpr FlightEvent requested(std::uint64_t req, std::uint64_t t) {
    return FlightEvent{req, t, 0, 0, FlightEventKind::kRequested, 0};
  }
  static constexpr FlightEvent granted(std::uint64_t req, std::uint64_t t,
                                       std::uint16_t ancestor_level) {
    return FlightEvent{req, t, 0, ancestor_level, FlightEventKind::kGranted,
                       0};
  }
  static constexpr FlightEvent rejected(std::uint64_t req, std::uint64_t t,
                                        std::uint8_t reason,
                                        std::uint16_t fail_level) {
    return FlightEvent{req, t, 0, fail_level, FlightEventKind::kRejected,
                       reason};
  }
  static constexpr FlightEvent revoked(std::uint64_t req, std::uint64_t t,
                                       std::uint8_t cable_level,
                                       std::uint16_t cable_port,
                                       std::uint32_t cable_lower_index) {
    return FlightEvent{req,        t, cable_lower_index, cable_port,
                       FlightEventKind::kRevoked, cable_level};
  }
  static constexpr FlightEvent retry_enqueued(std::uint64_t req,
                                              std::uint64_t eligible_at,
                                              std::uint16_t attempt,
                                              bool victim) {
    return FlightEvent{req,
                       eligible_at,
                       victim ? 1U : 0U,
                       attempt,
                       FlightEventKind::kRetryEnqueued,
                       0};
  }
  static constexpr FlightEvent retry_shed(std::uint64_t req, std::uint64_t t,
                                          std::uint8_t cause) {
    return FlightEvent{req, t, 0, 0, FlightEventKind::kRetryShed, cause};
  }
  static constexpr FlightEvent recovered(std::uint64_t req, std::uint64_t t,
                                         std::uint32_t latency) {
    return FlightEvent{req, t, latency, 0, FlightEventKind::kRecovered, 0};
  }
  static constexpr FlightEvent closed(std::uint64_t req, std::uint64_t t) {
    return FlightEvent{req, t, 0, 0, FlightEventKind::kClosed, 0};
  }

  friend bool operator==(const FlightEvent& lhs,
                         const FlightEvent& rhs) = default;
};

/// Fixed-capacity overwrite-oldest ring of FlightEvents. record() is the
/// only hot operation: one store and one increment, no allocation, no
/// branch beyond the wrap check. Once full, the newest event silently
/// replaces the oldest and dropped() grows — post-mortem value lives in the
/// most recent history, exactly like a cockpit flight recorder.
class FlightRing {
 public:
  explicit FlightRing(std::size_t capacity) : buf_(capacity) {
    FT_REQUIRE(capacity >= 1);
  }

  void record(const FlightEvent& event) {
    buf_[head_] = event;
    if (++head_ == buf_.size()) head_ = 0;
    ++total_;
  }

  std::size_t capacity() const { return buf_.size(); }
  /// Events ever recorded (kept + dropped).
  std::uint64_t total() const { return total_; }
  /// Events overwritten before anyone read them.
  std::uint64_t dropped() const {
    return total_ > buf_.size() ? total_ - buf_.size() : 0;
  }
  /// Events currently held (== min(total, capacity)).
  std::size_t size() const {
    return total_ < buf_.size() ? static_cast<std::size_t>(total_)
                                : buf_.size();
  }

  /// The retained events, oldest first.
  std::vector<FlightEvent> snapshot() const;

  void clear();

 private:
  std::vector<FlightEvent> buf_;
  std::size_t head_ = 0;     // next slot to write
  std::uint64_t total_ = 0;  // monotonically increasing event count
};

/// Owns one FlightRing per execution lane. The degradation engine hands
/// chunk k ring(k), so recording is race-free by construction and the union
/// of rings is thread-count-invariant once stitched by request id.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1U << 16U;

  explicit FlightRecorder(std::size_t rings,
                          std::size_t capacity = kDefaultCapacity);

  std::size_t ring_count() const { return rings_.size(); }
  std::size_t capacity() const { return capacity_; }
  FlightRing& ring(std::size_t k) {
    FT_REQUIRE(k < rings_.size());
    return rings_[k];
  }
  const FlightRing& ring(std::size_t k) const {
    FT_REQUIRE(k < rings_.size());
    return rings_[k];
  }

  /// Totals across all rings.
  std::uint64_t recorded() const;
  std::uint64_t dropped() const;

  void clear();

  /// obs.flight.rings / obs.flight.recorded / obs.flight.dropped counters.
  void export_metrics(MetricsRegistry& registry) const;

  /// Dump format v1 (self-describing JSONL): one header object
  ///   {"type":"flight_recorder","version":1,"rings":R,"capacity":C,
  ///    "recorded":N,"dropped":D}
  /// followed by one object per retained event, ring by ring, oldest first:
  ///   {"ring":k,"req":..,"t":..,"kind":"GRANTED","a":..,"b":..,"c":..}
  void write_jsonl(std::ostream& os) const;

 private:
  std::vector<FlightRing> rings_;
  std::size_t capacity_;
};

// --- Post-mortem dump on contract failure ------------------------------------

/// Arms the process-wide contract-failure hook (util/contracts.hpp): if any
/// FT_REQUIRE/FT_ASSERT fires while armed, `recorder` is drained to `path`
/// before the process aborts — the black-box recovery path. The recorder
/// must outlive the armed window; disarm before destroying it. Only one
/// recorder can be armed at a time (re-arming replaces the previous one).
void arm_flight_dump_on_contract_failure(const FlightRecorder& recorder,
                                         std::string path);
void disarm_flight_dump_on_contract_failure();

}  // namespace ftsched::obs
