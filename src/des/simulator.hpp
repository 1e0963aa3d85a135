// Discrete-event simulation kernel — the repository's SystemC substitute.
//
// The paper's evaluation ran on "a SystemC based simulator ... network
// control signals are passed through each switch node in parallel". This
// kernel reproduces the semantics that simulation style relies on:
//   * events ordered by (time, insertion sequence) — deterministic replay,
//   * delta cycles: Signal writes are deferred and applied between delta
//     phases of the same timestamp, so "parallel" processes all observe the
//     pre-write values within one phase (SystemC's evaluate/update),
//   * sensitivity: processes re-run when a signal they watch changes.
// No threads or coroutines — processes are callbacks, which is all the
// switch models need and keeps the kernel allocation-light.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/contracts.hpp"

namespace ftsched {

using SimTime = std::uint64_t;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now).
  void schedule_at(SimTime t, std::function<void()> fn) {
    FT_REQUIRE(t >= now_);
    queue_.push(Event{t, next_seq_++, std::move(fn)});
  }

  /// Schedules `fn` `dt` ticks from now.
  void schedule_in(SimTime dt, std::function<void()> fn) {
    schedule_at(now_ + dt, std::move(fn));
  }

  /// Registers an update to apply at the end of the current delta phase
  /// (Signal uses this; models normally do not call it directly). The
  /// returned notifications run in the next delta of the same timestamp.
  void request_update(std::function<void()> apply) {
    pending_updates_.push_back(std::move(apply));
  }

  /// Runs until the event queue is exhausted or `limit` events have been
  /// processed. Returns the number of events processed.
  std::uint64_t run(std::uint64_t limit = UINT64_MAX);

  /// Runs while now() <= `until` (events at later times stay queued).
  std::uint64_t run_until(SimTime until);

  std::uint64_t events_processed() const { return events_processed_; }

  /// Opt-in per-timestamp hook: `hook(t)` fires once for every distinct
  /// simulated time the kernel advances to, before that time's first event
  /// dispatch — the sampling point DES-driven telemetry wants (e.g. capture
  /// LinkState occupancy at every tick). Pass {} to detach; the unhooked
  /// run loop pays one predicted branch per timestamp.
  void set_tick_hook(std::function<void(SimTime)> hook) {
    tick_hook_ = std::move(hook);
  }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Applies pending Signal updates (one delta boundary).
  void flush_updates();

  /// Fires tick_hook_ when `t` is a timestamp it has not seen yet.
  void notify_tick(SimTime t) {
    if (!tick_hook_) return;
    if (hook_fired_ && t == last_hook_time_) return;
    hook_fired_ = true;
    last_hook_time_ = t;
    tick_hook_(t);
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<std::function<void()>> pending_updates_;
  std::function<void(SimTime)> tick_hook_;
  SimTime last_hook_time_ = 0;
  bool hook_fired_ = false;
};

}  // namespace ftsched
