// Chrome trace-event writer — spans and instants loadable in Perfetto.
//
// Events buffer in memory (instrumented code never blocks on I/O) and are
// rendered on demand as the Trace Event Format JSON that chrome://tracing
// and https://ui.perfetto.dev consume: {"traceEvents":[...]}. Two phases
// cover everything the repo needs: complete spans ("X", with explicit
// ts/dur) and instants ("i").
//
// Timestamps are caller-supplied microsecond values, which lets each
// subsystem pick its natural clock: scheduler batches use wall time
// (TraceWriter::wall_now_us, via ScopedSpan), the fault layer's spans use
// simulated ticks. The pid field keeps the clock domains on separate tracks
// in the viewer (kPidSched/kPidDes). Instrumented code reaches the
// writer through an obs::Sink (obs/sink.hpp).
//
// Everything is null-tolerant: a ScopedSpan constructed with a nullptr
// writer does nothing — not even a clock read — so instrumented hot paths
// pay one branch when tracing is off.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace ftsched::obs {

/// Track ("process") ids separating the clock domains in trace viewers.
inline constexpr std::uint32_t kPidSched = 1;  ///< wall-clock microseconds
inline constexpr std::uint32_t kPidDes = 2;    ///< simulated ticks

struct TraceEvent {
  std::string name;
  std::string cat;
  char phase = 'X';        ///< 'X' complete, 'i' instant
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;  ///< complete events only
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
};

/// Viewer metadata ("ph":"M" process_name): names a pid track so Perfetto
/// shows "sched (wall us)" instead of a raw pid number.
struct TraceMetadata {
  std::uint32_t pid = 0;
  std::string name;
};

class TraceWriter {
 public:
  /// Pre-names the two standard clock-domain tracks (kPidSched/kPidDes);
  /// set_process_name overrides them.
  TraceWriter();

  void complete(std::string_view name, std::string_view cat,
                std::uint64_t ts_us, std::uint64_t dur_us,
                std::uint32_t pid = kPidSched, std::uint32_t tid = 0);
  void instant(std::string_view name, std::string_view cat,
               std::uint64_t ts_us, std::uint32_t pid = kPidSched,
               std::uint32_t tid = 0);

  /// Names a pid track (replaces an earlier name for the same pid). Rendered
  /// as a {"ph":"M","name":"process_name"} metadata event ahead of the
  /// event stream, so viewers label the track.
  void set_process_name(std::uint32_t pid, std::string_view name);

  /// size()/empty()/events() cover payload events only; track names live in
  /// metadata() and survive clear().
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<TraceMetadata>& metadata() const { return metadata_; }
  void clear() { events_.clear(); }

  /// Renders {"traceEvents":[...],"displayTimeUnit":"ms"} — a single valid
  /// JSON document.
  void write(std::ostream& os) const;

  /// Microseconds on the process monotonic clock; the epoch is the first
  /// call, so traces start near t=0.
  static std::uint64_t wall_now_us();

 private:
  std::vector<TraceEvent> events_;
  std::vector<TraceMetadata> metadata_;
};

/// RAII wall-clock span: records a complete event from construction to
/// destruction on the kPidSched track. No-op (no clock read, no copy of
/// `name`) when `writer` is null.
class ScopedSpan {
 public:
  ScopedSpan(TraceWriter* writer, std::string_view name, std::string_view cat,
             std::uint32_t tid = 0)
      : writer_(writer) {
    if (!writer_) return;
    name_ = std::string(name);
    cat_ = std::string(cat);
    tid_ = tid;
    start_us_ = TraceWriter::wall_now_us();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (!writer_) return;
    const std::uint64_t end_us = TraceWriter::wall_now_us();
    writer_->complete(name_, cat_, start_us_, end_us - start_us_, kPidSched,
                      tid_);
  }

 private:
  TraceWriter* writer_;
  std::string name_;
  std::string cat_;
  std::uint32_t tid_ = 0;
  std::uint64_t start_us_ = 0;
};

}  // namespace ftsched::obs
