// Sink — the one instrumentation seam of a run.
//
// Every component that reports what it does takes one obs::Sink* (null =
// detached): the schedulers (Scheduler::set_sink), ConnectionManager
// (set_sink), and the run configs (FabricOptions, ExperimentConfig,
// DegradationConfig, SoakConfig). The sink holds the run's consumers, each
// optional:
//   - `probe`: SchedulerProbe work counts (batch, pick, rollback, outcome);
//   - `flight`: the lifecycle ledger, ring `lane` of a FlightRecorder, with
//     the clock `now` that emitters without one stamp their events with, and
//     the `id_base` that turns an admission seq into a stable request id;
//   - `trace`: TraceWriter spans.
//
// Every event null-guards its consumer, so an emitter holding a Sink never
// checks the consumers itself, and a detached component pays one predicted
// branch on its Sink*. The sink is header-only and non-virtual: inlined, an
// event is the consumer's own increment behind one test. Observe, never
// steer: no event feeds anything back into the emitter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "obs/flight_recorder.hpp"
#include "obs/sched_probe.hpp"
#include "obs/trace.hpp"

namespace ftsched::obs {

struct Sink {
  SchedulerProbe* probe = nullptr;
  FlightRecorder* flight = nullptr;
  std::size_t lane = 0;       ///< the ring of `flight` events go to
  std::uint64_t id_base = 0;  ///< request id = id_base + admission seq
  std::uint64_t now = 0;      ///< DES tick for emitters without a clock
  TraceWriter* trace = nullptr;

  // --- Scheduler work: the probe --------------------------------------------

  void batch(std::size_t request_count) const {
    if (probe) probe->on_batch_begin(request_count);
  }
  /// A pick at `level` saw `popcount` free ports in its availability row.
  void and_popcount(std::uint32_t level, std::uint32_t popcount) const {
    if (probe) probe->on_and_popcount(level, popcount);
  }
  /// A pick at `level` chose `port`.
  void pick(std::uint32_t level, std::uint32_t port) const {
    if (probe) probe->on_port_pick(level, port);
  }
  /// A rejected request (or one backtracking step) released
  /// `released_entries` channel allocations.
  void rollback(std::size_t released_entries) const {
    if (probe) probe->on_rollback(released_entries);
  }
  /// The outcome events, once per request of a batch: a grant at its meet
  /// level, or a reject at its first-failure level with its reason code
  /// (`leaf_busy`: the leaf channels could not be claimed).
  void grant(std::uint32_t ancestor_level) const {
    if (probe) probe->on_grant(ancestor_level);
  }
  void reject(std::uint32_t level, std::uint8_t reason, bool leaf_busy) const {
    if (!probe) return;
    probe->on_reject(level, reason);
    if (leaf_busy) probe->on_leaf_claim_fail();
  }

  // --- Lifecycle ledger ----------------------------------------------------

  bool recording() const { return flight != nullptr; }
  std::uint64_t id(std::uint64_t seq) const { return id_base + seq; }
  void ledger(const FlightEvent& event) const {
    if (flight) flight->ring(lane).record(event);
  }

  // --- Spans ----------------------------------------------------------------

  /// A wall-clock span on the kPidSched track, closed when the result goes
  /// out of scope.
  [[nodiscard]] ScopedSpan span(std::string_view name,
                                std::string_view cat) const {
    return ScopedSpan(trace, name, cat);
  }
  /// A span or an instant at caller-supplied times on track `pid`.
  void span(std::string_view name, std::string_view cat, std::uint64_t ts,
            std::uint64_t dur, std::uint32_t pid) const {
    if (trace) trace->complete(name, cat, ts, dur, pid);
  }
  void instant(std::string_view name, std::string_view cat, std::uint64_t ts,
               std::uint32_t pid) const {
    if (trace) trace->instant(name, cat, ts, pid);
  }
};

}  // namespace ftsched::obs
