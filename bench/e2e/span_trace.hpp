// SpanTrace — the benchmark's own span recorder for the traced run.
//
// Spans are recorded around each public library call the benchmark makes
// (the library itself is not instrumented). Each span carries a name, start
// and end timestamps from one obs::Stopwatch, its own id, the id of the
// enclosing span (0 at the root) and a unit id shared by every span of one
// batch, operation or episode. Records go into a buffer reserved up front,
// in begin order; once it is full, later spans still count toward the
// per-name totals but are not kept for the JSONL dump. Per-name totals and
// self time (duration minus the time covered by direct children) accumulate
// as spans end, so aggregation needs no second pass.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/stopwatch.hpp"

namespace ftsched::e2e {

struct SpanRecord {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t unit_id = 0;
  std::uint32_t name = 0;  ///< index into SpanTrace::names()
  std::uint32_t parent_id = 0;
};

/// Per-name aggregate over every span that ended, kept or dropped.
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class SpanTrace {
 public:
  explicit SpanTrace(std::size_t capacity);

  /// Id of `name` in the name table, adding it on first use.
  std::uint32_t intern(std::string_view name);

  /// Opens a span nested in the innermost open span.
  void begin(std::uint32_t name, std::uint64_t unit_id);

  /// Closes the innermost open span; returns its duration in ns.
  std::uint64_t end();

  const std::vector<std::string>& names() const { return names_; }
  const std::vector<SpanTotals>& totals() const { return totals_; }
  /// Totals of `name`; all zero when no such span was opened.
  SpanTotals totals(std::string_view name) const;
  std::uint64_t kept() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  /// Writes every kept span as one JSON object per line (span_id is the
  /// 1-based position in begin order). False on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  static constexpr std::uint32_t kNotKept = 0;

  struct Open {
    std::uint32_t name = 0;
    std::uint32_t span_id = kNotKept;
    std::uint64_t start_ns = 0;
    std::uint64_t child_ns = 0;
  };

  obs::Stopwatch clock_;
  std::size_t capacity_;
  std::vector<SpanRecord> spans_;
  std::vector<Open> stack_;
  std::vector<std::string> names_;
  std::vector<SpanTotals> totals_;
  std::uint64_t dropped_ = 0;
};

/// RAII span; a null trace makes it a no-op, so untraced loops share code.
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace* trace, std::uint32_t name, std::uint64_t unit_id)
      : trace_(trace) {
    if (trace_ != nullptr) trace_->begin(name, unit_id);
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTrace* trace_;
};

}  // namespace ftsched::e2e
