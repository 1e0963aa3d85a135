#include "des/simulator.hpp"

namespace ftsched {

void Simulator::run() {
  while (!queue_.empty()) {
    // priority_queue::top() is const; the handler is moved out before pop.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    FT_ASSERT(ev.time >= now_);
    now_ = ev.time;
    ev.fn();
    ++events_processed_;
  }
}

}  // namespace ftsched
