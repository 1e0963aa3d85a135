// ConnectionManager — dynamic (open/close) circuit management.
//
// The paper motivates the scheduler with long-lived connections: a grant
// reserves every channel of the circuit until the connection closes.
// ConnectionManager wraps the level-wise single-request algorithm
// (request-major, with rollback) behind an open/close API so applications
// can manage an evolving set of circuits instead of one-shot batches —
// this is what a centralized fabric manager built on the paper's hardware
// would expose.
//
// Beyond the paper, open() can also rearrange. A fat tree is rearrangeably
// non-blocking, so a request the level-wise rule cannot place against the
// current allocation may still fit once an open circuit moves to another of
// its port strings. Given a move budget, a blocked open:
//   1. reads the blocking row pair off the failed walk: the level h, Ulink
//      row σ_h and Dlink row δ_h whose AND was empty,
//   2. looks for a port of that pair held on exactly ONE side, by an open
//      circuit (the other side free),
//   3. moves that circuit: releases it, masks the contended channel, re-walks
//      it first-fit, unmasks; with no other placement it goes back on its
//      old ports (always possible: they were just freed),
//   4. retries, spending at most `max_moves` moves.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/request.hpp"
#include "core/scheduler.hpp"
#include "linkstate/link_state.hpp"
#include "obs/sink.hpp"
#include "topology/fat_tree.hpp"

namespace ftsched {

using ConnectionId = std::uint64_t;

/// A circuit torn down by a cable failure: enough information for a fabric
/// manager to re-enqueue the victim.
struct Revocation {
  ConnectionId id = 0;
  Request request;
};

/// Result of open_batch: a ScheduleResult aligned with the input requests
/// (so batch semantics match the one-shot schedulers bit for bit) plus the
/// connection id of every grant.
struct BatchOpenResult {
  ScheduleResult schedule;
  std::vector<std::optional<ConnectionId>> ids;  ///< parallel to requests

  std::uint64_t granted_count() const { return schedule.granted_count(); }
};

class ConnectionManager {
 public:
  /// The tree must outlive the manager.
  explicit ConnectionManager(const FatTree& tree);

  /// Tries to establish a circuit by the first-fit level-wise walk; on
  /// success returns its id and the state holds its channels until close().
  /// Fails (nullopt) when an endpoint is already in use by an open
  /// connection, or when no conflict-free port string exists even after
  /// moving up to `max_moves` open circuits (0: no moves; see the file
  /// comment). A leaf-busy request is never rearranged.
  std::optional<ConnectionId> open(const Request& request,
                                   std::uint32_t max_moves = 0);

  /// What rearranging opens did; the rest follows from open()'s results.
  struct Stats {
    std::uint64_t moves = 0;              ///< circuits relocated
    std::uint64_t rearranged_grants = 0;  ///< admitted after >= 1 move
  };
  const Stats& stats() const { return stats_; }

  /// Opens a whole batch through `scheduler` (any registry scheduler that
  /// allocates on top of the live state — all of them do). Requests whose
  /// endpoints collide with an already-open circuit are pre-rejected with
  /// kLeafBusy; the rest are scheduled as ONE batch, so on an empty fabric
  /// the grant set is bit-identical to a standalone scheduler run — the
  /// property the fault-rate-0 degradation baseline relies on. Grants are
  /// registered as open connections.
  /// `request_ids` optionally carries one stable flight-recorder id per
  /// request (parallel to `requests`). When the sink records a ledger and
  /// the ids are present, the batch is ledger-tracked: every request gets
  /// one GRANTED (ancestor level) or REJECTED (reason, fail level) event —
  /// the pre-filtered kLeafBusy rejections first, then the scheduled
  /// requests in batch order — and grants remember their id so
  /// close()/fail_cable() can emit CLOSED/REVOKED later. Events carry the
  /// sink's clock. The scheduler's own sink, if any, only counts. An empty
  /// span leaves the batch untracked.
  BatchOpenResult open_batch(const std::vector<Request>& requests,
                             Scheduler& scheduler,
                             std::span<const std::uint64_t> request_ids = {});

  /// Releases a circuit's channels. Fails if the id is unknown.
  Status close(ConnectionId id);

  /// Releases everything.
  void clear();

  // --- Fault handling -------------------------------------------------------

  /// Fails the cable in the link state and revokes every open circuit that
  /// crosses it: victims' channels are released (the failed cable's own
  /// channels park in the fault shadow), their leaf claims are dropped, and
  /// they are returned in ascending ConnectionId order — the deterministic
  /// re-enqueue order. The victims are read from the channel owner index
  /// (at most two: the owners of the cable's up- and down-channel), so a
  /// failure costs its victims, not a scan of every open circuit. The
  /// first call builds the index; from then on open/close keep it current.
  /// The cable must not already be faulted.
  std::vector<Revocation> fail_cable(const CableId& cable);

  /// Repairs a previously failed cable; channels nobody holds become
  /// available again. The cable must currently be faulted.
  void repair_cable(const CableId& cable);

  std::size_t active_count() const { return slots_.size() - free_.size(); }
  const LinkState& state() const { return state_; }
  const FatTree& tree() const { return tree_; }

  /// The established path of an open connection, or null. The pointer stays
  /// valid until that connection closes (close, clear, or revocation by
  /// fail_cable): other circuits' opens and closes never move it, because
  /// the slot table never reallocates. The path stays unchanged too, unless
  /// a rearranging open moves the circuit: it then keeps its id, its slot,
  /// its flight id and this pointer, which reads the new ports.
  const Path* find(ConnectionId id) const;

  /// Fraction of inter-switch up-channels occupied at `level`.
  double level_utilization(std::uint32_t level) const;

  /// Residue check of the channel owner index: once it is built, every
  /// channel of every open circuit must name that circuit, and no other
  /// channel may name any — i.e. the index equals one re-derived from the
  /// open paths. Before the first fail_cable or rearranging attempt there
  /// is no index to check.
  Status audit_owners() const;

  /// Attaches the instrumentation sink (null detaches): the manager writes
  /// the lifecycle ledger through it, stamped with its `now` (the manager
  /// itself has no clock, so the caller sets it before open_batch / close /
  /// fail_cable). Detached, every emission site costs one predicted branch.
  void set_sink(obs::Sink* sink) { sink_ = sink; }

 private:
  // The row pair whose AND was empty when a walk failed.
  struct Block {
    std::uint32_t level = 0;
    std::uint64_t sigma = 0;
    std::uint64_t delta = 0;
  };
  /// First-fit level-wise walk over the live state, without occupying: fills
  /// path.ports for path.src -> path.dst up to path.ancestor_level, or
  /// returns false with `block` set. A circuit takes one channel per matrix
  /// per level, so its lower levels never change a higher level's rows and
  /// the ports can be occupied after the walk.
  bool walk(Path& path, Block& block) const;
  /// Moves one open circuit off a port of `block` held on exactly one side;
  /// false (state unchanged) when no such circuit has another placement.
  bool rearrange(const Block& block);
  bool move_off(const ChannelId& contended);

  const FatTree& tree_;
  LinkState state_;
  LeafTracker leaves_;
  // Circuit table. Each open circuit lives in a stable slot of slots_
  // (id 0 = free; freed slots are reused from free_). Every open circuit
  // claims a distinct source PE through leaves_, so at most node_count
  // slots are ever live: the constructor reserves that many and the table
  // never reallocates. index_ maps an id to its slot by open addressing:
  // home bucket id & mask, linear probing, backward-shift deletion, sized
  // to the smallest power of two >= 2·node_count. Buckets carry the id, so
  // a probe never touches slots_. Ids are handed out monotonically, so
  // ascending id is grant order.
  struct Circuit {
    ConnectionId id = 0;
    Path path;
    bool tracked = false;  // flight_id is a flight-recorder id
    std::uint64_t flight_id = 0;
  };
  struct Bucket {
    ConnectionId id = 0;  // 0 = empty
    std::uint32_t slot = 0;
  };
  void insert(ConnectionId id, const Path& path, bool tracked,
              std::uint64_t flight_id);
  std::size_t bucket_of(ConnectionId id) const;  // index_.size() if absent
  void erase(std::size_t bucket);  // frees the slot and the bucket
  std::vector<Circuit> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<Bucket> index_;
  std::size_t mask_ = 0;
  ConnectionId next_id_ = 1;

  // Channel owner index: the open circuit holding each directed channel,
  // 0 = free, at slot (owner_offset_[h] + lower_index·w + port)·2 +
  // direction. Empty until the first fail_cable or rearranging attempt
  // builds it, so a manager that never sees either (circuit churn) pays one
  // branch per open or close; once built, open/open_batch/close/clear, moves
  // and fail_cable's own revocations keep it current, and a failure never
  // rescans.
  std::size_t owner_slot(const ChannelId& channel) const;
  void set_owner(const Path& path, ConnectionId owner);
  void build_owners();
  std::vector<std::uint64_t> owner_offset_;  // per level, in cables
  std::vector<ConnectionId> owners_;

  Stats stats_;
  obs::Sink* sink_ = nullptr;
};

}  // namespace ftsched
