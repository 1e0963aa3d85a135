#include "fault/retry_queue.hpp"

#include <algorithm>

namespace ftsched {

bool RetryQueue::admit(RetryEntry entry) {
  if (max_pending_ != 0 && entries_.size() >= max_pending_) {
    ++shed_;
    return false;
  }
  // Admissions arrive in seq order in normal operation; the insertion sort
  // keeps the invariant even if a caller re-admits an older entry.
  auto pos = std::lower_bound(entries_.begin(), entries_.end(), entry.seq,
                              [](const RetryEntry& e, std::uint64_t seq) {
                                return e.seq < seq;
                              });
  FT_REQUIRE_MSG(pos == entries_.end() || pos->seq != entry.seq,
                 "duplicate seq admitted to retry queue");
  next_due_ = std::min(next_due_, entry.eligible_at);
  entries_.insert(pos, std::move(entry));
  peak_ = std::max(peak_, entries_.size());
  return true;
}

std::vector<RetryEntry> RetryQueue::take_due(SimTime now) {
  std::vector<RetryEntry> due;
  if (entries_.empty() || now < next_due_) return due;
  SimTime next = kNever;
  auto keep = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->eligible_at <= now) {
      due.push_back(std::move(*it));
    } else {
      next = std::min(next, it->eligible_at);
      *keep++ = std::move(*it);
    }
  }
  entries_.erase(keep, entries_.end());
  next_due_ = next;
  return due;
}

}  // namespace ftsched
