#include "des/simulator.hpp"

namespace ftsched {

void Simulator::flush_updates() {
  // Updates may trigger sensitivity callbacks that request further updates
  // (the next delta). Swap out the batch first so those land in a fresh
  // list.
  while (!pending_updates_.empty()) {
    std::vector<std::function<void()>> batch;
    batch.swap(pending_updates_);
    for (auto& apply : batch) apply();
  }
}

std::uint64_t Simulator::run(std::uint64_t limit) {
  std::uint64_t processed = 0;
  while (processed < limit && (!queue_.empty() || !pending_updates_.empty())) {
    if (queue_.empty()) {
      flush_updates();
      continue;
    }
    const SimTime t = queue_.top().time;
    FT_ASSERT(t >= now_);
    now_ = t;
    notify_tick(t);
    // Evaluate phase: drain every event at this timestamp...
    while (!queue_.empty() && queue_.top().time == t && processed < limit) {
      // priority_queue::top() is const; the handler is moved out before pop.
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      ev.fn();
      ++processed;
      ++events_processed_;
      // ...applying delta updates whenever the evaluate phase quiesces at
      // this timestamp (events scheduled by updates for time t re-enter the
      // inner loop — the next delta).
      if (queue_.empty() || queue_.top().time != t) flush_updates();
    }
  }
  return processed;
}

std::uint64_t Simulator::run_until(SimTime until) {
  std::uint64_t processed = 0;
  while ((!queue_.empty() && queue_.top().time <= until) ||
         !pending_updates_.empty()) {
    if (queue_.empty() || queue_.top().time > now_) flush_updates();
    if (queue_.empty() || queue_.top().time > until) {
      if (pending_updates_.empty()) break;
      continue;
    }
    const SimTime t = queue_.top().time;
    now_ = t;
    notify_tick(t);
    while (!queue_.empty() && queue_.top().time == t) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      ev.fn();
      ++processed;
      ++events_processed_;
      if (queue_.empty() || queue_.top().time != t) flush_updates();
    }
  }
  return processed;
}

}  // namespace ftsched
