// Transaction — scoped, roll-back-able link allocation.
//
// The level-wise scheduler allocates a request's channels one level at a
// time; if a later level has no common free port the request is rejected and
// everything it grabbed below must be returned. The conventional local
// scheduler needs the same, but allocates the two directions at different
// times (up-channels while ascending, down-channels while descending), so
// the transaction records single-sided entries too. All entries roll back
// (newest first) unless commit() is called — RAII, so early exits cannot
// leak occupied channels.
#pragma once

#include <cstdint>
#include <vector>

#include "linkstate/link_state.hpp"
#include "util/contracts.hpp"

namespace ftsched {

class Transaction {
 public:
  explicit Transaction(LinkState& state)
      : state_(&state), committed_(false) {}

  /// An unbound, settled transaction: scheduler-owned scratch that rebind()
  /// arms for each request.
  Transaction() = default;

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  ~Transaction() {
    if (!committed_) rollback();
  }

  /// Re-arms a settled (committed or rolled-back) transaction against
  /// `state`, keeping the entry buffer's capacity. The per-request
  /// schedulers (request-major levelwise, local, dmodk) each own one
  /// transaction and rebind it for every request instead of constructing
  /// one, so once the buffer has grown to a circuit's 2·H entries the hot
  /// path allocates nothing.
  void rebind(LinkState& state) {
    FT_REQUIRE(committed_ || entries_.empty());
    state_ = &state;
    entries_.clear();
    committed_ = false;
  }

  /// Occupies Ulink(level, src_sw)[port] + Dlink(level, dst_sw)[port] — the
  /// level-wise scheduler's paired allocation.
  void occupy(std::uint32_t level, std::uint64_t src_sw, std::uint64_t dst_sw,
              std::uint32_t port) {
    state_->occupy_ulink(level, src_sw, port);
    state_->occupy_dlink(level, dst_sw, port);
    entries_.push_back(Entry{level, src_sw, port, Direction::kUp});
    entries_.push_back(Entry{level, dst_sw, port, Direction::kDown});
  }

  /// Occupies only the upward channel (local scheduler, ascent phase).
  void occupy_up(std::uint32_t level, std::uint64_t sw, std::uint32_t port) {
    state_->occupy_ulink(level, sw, port);
    entries_.push_back(Entry{level, sw, port, Direction::kUp});
  }

  /// Occupies only the downward channel (local scheduler, descent phase).
  void occupy_down(std::uint32_t level, std::uint64_t sw, std::uint32_t port) {
    state_->occupy_dlink(level, sw, port);
    entries_.push_back(Entry{level, sw, port, Direction::kDown});
  }

  /// Releases only the newest allocation — the backtracking step of DFS-style
  /// schedulers (turnback), which undo one tentative hold at a time while
  /// keeping the rest of the branch occupied.
  void release_last() {
    FT_REQUIRE(!entries_.empty());
    const Entry e = entries_.back();
    entries_.pop_back();
    if (e.direction == Direction::kUp) {
      state_->set_ulink(e.level, e.sw, e.port, true);
    } else {
      state_->set_dlink(e.level, e.sw, e.port, true);
    }
  }

  /// Keeps all allocations; the transaction becomes inert.
  void commit() { committed_ = true; }

  /// Releases every recorded allocation (newest first) immediately.
  void rollback() {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (it->direction == Direction::kUp) {
        state_->set_ulink(it->level, it->sw, it->port, true);
      } else {
        state_->set_dlink(it->level, it->sw, it->port, true);
      }
    }
    entries_.clear();
    committed_ = true;  // nothing left to undo
  }

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::uint32_t level;
    std::uint64_t sw;
    std::uint32_t port;
    Direction direction;
  };

  LinkState* state_ = nullptr;
  std::vector<Entry> entries_;
  bool committed_ = true;  // settled until bound
};

}  // namespace ftsched
