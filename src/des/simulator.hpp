// Discrete-event simulation kernel: a timed event queue.
//
// Events are callbacks ordered by (time, insertion sequence), so a run
// replays deterministically and same-timestamp events fire in the order
// they were scheduled. No threads or coroutines. The fault layer's
// FabricManager, the chaos soak and the packet delivery model run on it;
// the distributed-setup model, which reproduces the paper's parallel
// per-switch control signals, runs its own synchronous cycle loop.
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

  /// Runs events, including the ones they schedule, until the queue is
  /// empty.
  void run();

  std::uint64_t events_processed() const { return events_processed_; }

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

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace ftsched
