// ProfileSession / ProfileRegion — hot-path cost attribution.
//
// The scheduler probes count WHAT happened (grants, rejects, popcounts);
// this layer measures what it COST: wall nanoseconds and — where the
// machine exposes a PMU — cycles, instructions, and cache/branch misses
// (obs::PerfCounters), attributed per phase and per tree level of the
// scheduling hot loop: before optimizing the AND/find-first-set sweep,
// know where the instructions actually go.
//
// Attribution is MARK-BASED SELF-TIME. The session keeps one cursor sample
// ("last mark"); at every region boundary (enter, exit, batch end) it reads
// the counters once and credits the delta since the previous mark to the
// INNERMOST region active during that window — or to the `unattributed`
// bucket when no region was active. Consequences, all load-bearing:
//   * `total == Σ slot.self + unattributed` holds EXACTLY (unsigned adds of
//     the same deltas — a unit test pins it), so the report can show "where
//     did every nanosecond go" without a fudge row.
//   * Nested regions yield self-cost, not inclusive cost: a kAnd region
//     inside kPortPick subtracts cleanly from its parent.
//   * Reentrancy (same phase nested in itself) needs no special case — the
//     stack does it.
//   * Each mark costs one counter read (~20 ns vDSO clock on the timer
//     backend, one syscall on perf_event), and that cost lands in whichever
//     slot is active — profiled numbers describe the INSTRUMENTED run, not
//     the detached one. `marks()` reports the boundary count so readers can
//     bound the instrumentation share, and the regression gate only ever
//     compares identically-instrumented artifacts (same bench, same
//     regions), so the overhead cancels out of the comparison.
//
// Discipline mirrors SchedulerProbe: attach via Scheduler::set_profiler,
// null = detached, detached costs one predicted branch per call site, and
// profiling observes, never steers — attached vs detached scheduling
// results are bit-identical (tested at --threads=1 and 8).
//
// Accounting happens only inside a begin_batch()/end_batch() window (the
// driver brackets each schedule() call); region marks outside a window are
// dropped, so workload generation and verification never pollute the
// scheduler's totals. Sessions are single-threaded; the parallel runner
// gives each worker a private session opened ON that worker (perf fds are
// per-thread) and folds them with merge_from() in chunk order.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "util/contracts.hpp"

namespace ftsched::obs {

/// The phase taxonomy of the scheduling hot loop (docs/PERFORMANCE.md
/// "Profiling" explains each). Admission/commit/rollback are per-batch
/// phases reported at level 0; and/port-pick/label carry the tree level.
enum class ProfilePhase : std::uint8_t {
  kAdmission = 0,  ///< leaf claim + σ/δ label decomposition
  kAnd,            ///< availability-vector evaluation (popcount read)
  kPortPick,       ///< port selection (first/nth/next free, RNG draw)
  kLabel,          ///< Theorem-1 digit shift + meet check + live compaction
  kCommit,         ///< transaction occupy/commit volume
  kRollback,       ///< rejected-request rollback
};

inline constexpr std::size_t kProfilePhaseCount = 6;

std::string_view to_string(ProfilePhase phase);

/// Accumulated self-cost of one (phase, level) cell.
struct ProfileSlot {
  std::uint64_t entries = 0;
  PerfSample self;
};

class ProfileSession {
 public:
  explicit ProfileSession(
      PerfCounters::Request request = PerfCounters::Request::kAuto)
      : request_(request) {}

  /// Re-aims open() (kAuto vs forced timer). Only before open().
  void set_request(PerfCounters::Request request) {
    FT_REQUIRE(!counters_.is_open());
    request_ = request;
  }
  PerfCounters::Request request() const { return request_; }

  /// Opens the counters on the CALLING thread. Idempotent, never fails
  /// (falls back to the timer backend; see obs::PerfCounters).
  void open() { counters_.open(request_); }
  void close() { counters_.close(); }
  bool is_open() const { return counters_.is_open(); }

  /// The backend actually measuring: the open counters', or — for a merge
  /// target that was never opened itself — the merged shards'.
  PerfBackend backend() const {
    return counters_.is_open() ? counters_.backend() : merged_backend_;
  }

  // --- Accounting window ----------------------------------------------------

  /// Starts accounting (requires open(), no window active). Every region
  /// mark until end_batch() credits into this session.
  void begin_batch();

  /// Ends the window: the tail delta lands in `unattributed`, the request
  /// count feeds the per-request derived metrics. All regions must have
  /// exited (contract).
  void end_batch(std::uint64_t request_count);

  bool in_batch() const { return in_batch_; }

  // --- Region hooks (called by ProfileRegion) -------------------------------

  void enter(ProfilePhase phase, std::uint32_t level);
  void exit();

  // --- Accessors ------------------------------------------------------------

  const PerfSample& total() const { return total_; }
  const PerfSample& unattributed() const { return unattributed_; }
  std::uint64_t marks() const { return marks_; }
  std::uint64_t batches() const { return batches_; }
  std::uint64_t requests() const { return requests_; }

  /// Per-level slots of one phase (index = level; may be empty).
  const std::vector<ProfileSlot>& slots(ProfilePhase phase) const {
    return slots_[static_cast<std::size_t>(phase)];
  }

  /// Sum of one phase's per-level cells.
  ProfileSlot phase_total(ProfilePhase phase) const;

  /// instructions / cycles over the whole session; 0 when the backend
  /// recorded no cycles (timer fallback).
  double ipc() const;

  void reset();

  /// Folds `other` (a closed worker shard) into this session, slot by slot.
  /// Neither session may have a window open.
  void merge_from(const ProfileSession& other);

  // --- Export ---------------------------------------------------------------

  /// Registers profile.* gauges and counters (see docs/OBSERVABILITY.md):
  /// profile.backend (0 = timer, 1 = perf_event), per-request derived
  /// gauges, session totals, and per-phase wall/instruction/entry counters.
  void export_metrics(MetricsRegistry& registry) const;

  /// One self-describing JSONL header line:
  ///   {"type":"profile","version":1,"bench":...,"backend":...,"env":{...}}
  static void write_jsonl_header(std::ostream& os, std::string_view bench,
                                 PerfBackend backend);

  /// One {"type":"point",...} line for this session (label identifies the
  /// scheduler/grid cell, e.g. "levelwise/l2w16").
  void write_jsonl_point(std::ostream& os, std::string_view label) const;

  /// The bare point object (no "type" tag) — the element the BENCH_*.json
  /// embedded `"profile":{"points":[...]}` block carries.
  void write_point_json(std::ostream& os, std::string_view label) const;

 private:
  /// Reads the counters once; credits the delta since the last mark to the
  /// innermost active slot (or unattributed), advances the cursor.
  void mark();

  ProfileSlot& slot_at(ProfilePhase phase, std::uint32_t level);

  PerfCounters counters_;
  PerfCounters::Request request_;
  PerfBackend merged_backend_ = PerfBackend::kTimer;

  bool in_batch_ = false;
  PerfSample last_mark_;
  PerfSample total_;
  PerfSample unattributed_;
  std::uint64_t marks_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t requests_ = 0;

  struct ActiveRegion {
    std::uint8_t phase;
    std::uint32_t level;
  };
  std::vector<ActiveRegion> stack_;
  std::array<std::vector<ProfileSlot>, kProfilePhaseCount> slots_;
};

/// RAII phase region. Null session (the detached scheduler) costs one
/// predicted branch in the constructor and one in the destructor — nothing
/// else, not even a clock read; same discipline as ScopedSpan/FT_FLIGHT_EVENT.
class ProfileRegion {
 public:
  ProfileRegion(ProfileSession* session, ProfilePhase phase,
                std::uint32_t level = 0)
      : session_(session) {
    if (session_ != nullptr) [[unlikely]] {
      session_->enter(phase, level);
    }
  }

  ProfileRegion(const ProfileRegion&) = delete;
  ProfileRegion& operator=(const ProfileRegion&) = delete;

  ~ProfileRegion() {
    if (session_ != nullptr) [[unlikely]] {
      session_->exit();
    }
  }

 private:
  ProfileSession* session_;
};

}  // namespace ftsched::obs
