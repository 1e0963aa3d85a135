// RetryQueue — pending re-attempts with an admission/shedding gate.
//
// Entries are keyed by a dense admission sequence number; take_due() drains
// everything eligible at the current simulated time in sequence order, so a
// retry batch is deterministic no matter how the DES events that triggered
// the drain were interleaved. The max_pending gate is the fabric manager's
// overload valve: when the queue is full, new entries are shed (counted,
// never silently dropped) instead of growing the backlog without bound.
//
// Every retry schedules its own DES wake-up, so most take_due() calls find
// nothing due. A watermark (the earliest eligible_at still pending) lets
// those calls return without touching the entries; only a real drain walks
// the queue, and it recomputes the watermark in the same compaction pass.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/request.hpp"
#include "des/simulator.hpp"
#include "util/contracts.hpp"

namespace ftsched {

struct RetryEntry {
  Request request;
  std::uint64_t seq = 0;       ///< admission order, unique per tracked request
  std::uint32_t attempts = 0;  ///< retries already consumed
  SimTime eligible_at = 0;
  SimTime first_submit = 0;
  SimTime revoked_at = 0;  ///< meaningful iff victim
  bool victim = false;     ///< revoked circuit (vs never-granted reject)
};

class RetryQueue {
 public:
  /// max_pending == 0 means unlimited.
  explicit RetryQueue(std::size_t max_pending = 0)
      : max_pending_(max_pending) {}

  /// Returns false (and counts a shed) when the gate is closed.
  bool admit(RetryEntry entry);

  /// Removes and returns every entry with eligible_at <= now, ordered by
  /// seq. Entries eligible in the future stay queued. O(1) when nothing is
  /// due (now < next_due()).
  std::vector<RetryEntry> take_due(SimTime now);

  /// Earliest eligible_at over the pending entries; kNever when empty.
  SimTime next_due() const { return next_due_; }
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  std::size_t pending() const { return entries_.size(); }
  std::uint64_t shed() const { return shed_; }
  std::size_t peak_pending() const { return peak_; }

 private:
  std::size_t max_pending_;
  std::vector<RetryEntry> entries_;  // kept sorted by seq
  SimTime next_due_ = kNever;        // min eligible_at over entries_
  std::uint64_t shed_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace ftsched
