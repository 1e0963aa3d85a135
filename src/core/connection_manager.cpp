#include "core/connection_manager.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "topology/circuit_labels.hpp"
#include "topology/path.hpp"

namespace ftsched {

ConnectionManager::ConnectionManager(const FatTree& tree)
    : tree_(tree), state_(tree), leaves_(tree.node_count()) {
  slots_.reserve(tree.node_count());
  free_.reserve(tree.node_count());
  std::size_t buckets = 1;
  while (buckets < 2 * tree.node_count()) buckets *= 2;
  index_.resize(buckets);
  mask_ = buckets - 1;
  std::uint64_t cables = 0;
  for (std::uint32_t h = 0; h < state_.link_levels(); ++h) {
    owner_offset_.push_back(cables);
    cables += state_.rows_at(h) * state_.ports_per_switch();
  }
  owner_offset_.push_back(cables);  // total, sizes the index
}

bool ConnectionManager::walk(Path& path, Block& block) const {
  path.ports.clear();
  CircuitLabels labels = CircuitLabels::from_nodes(tree_, path.src, path.dst);
  for (std::uint32_t h = 0; h < path.ancestor_level; ++h) {
    const std::uint64_t sigma = labels.sigma();
    const std::uint64_t delta = labels.delta();
    const std::optional<std::uint32_t> port =
        state_.first_available_port(h, sigma, delta);
    if (!port) {
      block = Block{h, sigma, delta};
      return false;
    }
    path.ports.push_back(*port);
    labels.ascend(tree_, *port);
  }
  FT_ASSERT(labels.met());
  return true;
}

std::optional<ConnectionId> ConnectionManager::open(const Request& request,
                                                    std::uint32_t max_moves) {
  FT_REQUIRE(request.src < tree_.node_count());
  FT_REQUIRE(request.dst < tree_.node_count());
  if (!leaves_.try_claim(request.src, request.dst)) return std::nullopt;

  Path path{request.src, request.dst,
            tree_.common_ancestor_level(tree_.leaf_switch(request.src).index,
                                        tree_.leaf_switch(request.dst).index),
            {}};
  std::uint32_t moves = 0;
  Block block;
  while (!walk(path, block)) {
    if (moves == max_moves || !rearrange(block)) {
      leaves_.release(request.src, request.dst);
      return std::nullopt;
    }
    ++moves;
  }
  state_.occupy_path(tree_, path);
  const ConnectionId id = next_id_++;
  insert(id, path, false, 0);
  if (!owners_.empty()) set_owner(path, id);
  if (moves > 0) ++stats_.rearranged_grants;
  return id;
}

bool ConnectionManager::rearrange(const Block& block) {
  if (owners_.empty()) build_owners();
  for (std::uint32_t p = 0; p < tree_.parent_arity(); ++p) {
    const bool u_free = state_.ulink(block.level, block.sigma, p);
    const bool d_free = state_.dlink(block.level, block.delta, p);
    FT_ASSERT(!(u_free && d_free));  // walk() would have taken it
    if (u_free == d_free) continue;  // both sides blocked: two moves, skip
    const ChannelId contended =
        u_free ? ChannelId{CableId{block.level, block.delta, p},
                           Direction::kDown}
               : ChannelId{CableId{block.level, block.sigma, p},
                           Direction::kUp};
    if (move_off(contended)) return true;
  }
  return false;
}

bool ConnectionManager::move_off(const ChannelId& contended) {
  // A faulted channel has no owner (fail_cable revoked it), and neither does
  // a free one: neither can be moved.
  const ConnectionId id = owners_[owner_slot(contended)];
  if (id == 0) return false;
  Circuit& circuit = slots_[index_[bucket_of(id)].slot];
  set_owner(circuit.path, 0);
  state_.release_path(tree_, circuit.path);

  // Mask the contended channel so the re-walk cannot pick it again.
  const CableId& cable = contended.cable;
  const auto mask = [&](bool available) {
    if (contended.direction == Direction::kUp) {
      state_.set_ulink(cable.level, cable.lower_index, cable.port, available);
    } else {
      state_.set_dlink(cable.level, cable.lower_index, cable.port, available);
    }
  };
  mask(false);
  Path moved = circuit.path;
  Block block;
  const bool found = walk(moved, block);
  mask(true);

  // Re-home in place, or restore the old ports: same id, slot and flight id.
  if (found) {
    circuit.path = moved;
    ++stats_.moves;
  }
  state_.occupy_path(tree_, circuit.path);
  set_owner(circuit.path, id);
  return found;
}

BatchOpenResult ConnectionManager::open_batch(
    const std::vector<Request>& requests, Scheduler& scheduler,
    std::span<const std::uint64_t> request_ids) {
  BatchOpenResult out;
  out.schedule.outcomes.resize(requests.size());
  out.ids.assign(requests.size(), std::nullopt);
  const bool tracked = sink_ != nullptr && sink_->recording() &&
                       request_ids.size() == requests.size();

  // Pre-filter endpoints already held by open circuits: the scheduler's own
  // per-batch LeafTracker starts empty, so standing claims must be enforced
  // here. Intra-batch endpoint conflicts stay the scheduler's business.
  // The ledger records each request's outcome as it is decided: the
  // pre-filtered ones here, the scheduled ones in batch order below.
  std::vector<Request> batch;
  std::vector<std::size_t> batch_index;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    FT_REQUIRE(r.src < tree_.node_count());
    FT_REQUIRE(r.dst < tree_.node_count());
    if (!leaves_.can_claim(r.src, r.dst)) {
      out.schedule.outcomes[i].granted = false;
      out.schedule.outcomes[i].reason = RejectReason::kLeafBusy;
      if (tracked) {
        sink_->ledger(obs::FlightEvent::rejected(
            request_ids[i], sink_->now,
            static_cast<std::uint8_t>(RejectReason::kLeafBusy), 0));
      }
      continue;
    }
    batch.push_back(r);
    batch_index.push_back(i);
  }

  ScheduleResult batch_result = scheduler.schedule(tree_, batch, state_);
  FT_REQUIRE(batch_result.outcomes.size() == batch.size());
  for (std::size_t b = 0; b < batch.size(); ++b) {
    const std::size_t i = batch_index[b];
    RequestOutcome& outcome = out.schedule.outcomes[i];
    outcome = std::move(batch_result.outcomes[b]);
    if (tracked) {
      sink_->ledger(
          outcome.granted
              ? obs::FlightEvent::granted(
                    request_ids[i], sink_->now,
                    static_cast<std::uint16_t>(outcome.path.ancestor_level))
              : obs::FlightEvent::rejected(
                    request_ids[i], sink_->now,
                    static_cast<std::uint8_t>(outcome.reason),
                    static_cast<std::uint16_t>(outcome.fail_level)));
    }
    if (!outcome.granted) continue;
    const bool claimed = leaves_.try_claim(batch[b].src, batch[b].dst);
    FT_ASSERT(claimed);  // pre-filter + scheduler tracker guarantee this
    (void)claimed;
    const ConnectionId id = next_id_++;
    insert(id, outcome.path, tracked, tracked ? request_ids[i] : 0);
    if (!owners_.empty()) set_owner(outcome.path, id);
    out.ids[i] = id;
  }
  return out;
}

void ConnectionManager::insert(ConnectionId id, const Path& path,
                               bool tracked, std::uint64_t flight_id) {
  std::uint32_t slot = 0;
  if (free_.empty()) {
    FT_ASSERT(slots_.size() < slots_.capacity());  // never reallocates
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Circuit{id, path, tracked, flight_id});
  } else {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = Circuit{id, path, tracked, flight_id};
  }
  std::size_t b = id & mask_;
  while (index_[b].id != 0) b = (b + 1) & mask_;
  index_[b] = Bucket{id, slot};
}

std::size_t ConnectionManager::bucket_of(ConnectionId id) const {
  if (id == 0) return index_.size();
  for (std::size_t b = id & mask_;; b = (b + 1) & mask_) {
    if (index_[b].id == id) return b;
    if (index_[b].id == 0) return index_.size();
  }
}

void ConnectionManager::erase(std::size_t bucket) {
  const std::uint32_t slot = index_[bucket].slot;
  slots_[slot].id = 0;
  free_.push_back(slot);
  // Backward shift: pull each later member of the probe run into the hole
  // unless that would move it before its home bucket. No tombstones.
  std::size_t hole = bucket;
  for (std::size_t b = (bucket + 1) & mask_; index_[b].id != 0;
       b = (b + 1) & mask_) {
    const std::size_t home = index_[b].id & mask_;
    if (((b - home) & mask_) >= ((b - hole) & mask_)) {
      index_[hole] = index_[b];
      hole = b;
    }
  }
  index_[hole] = Bucket{};
}

Status ConnectionManager::close(ConnectionId id) {
  const std::size_t b = bucket_of(id);
  if (b == index_.size()) {
    return Status::error("unknown connection id " + std::to_string(id));
  }
  const Circuit& c = slots_[index_[b].slot];
  if (!owners_.empty()) set_owner(c.path, 0);
  state_.release_path(tree_, c.path);
  leaves_.release(c.path.src, c.path.dst);
  if (c.tracked && sink_) {
    sink_->ledger(obs::FlightEvent::closed(c.flight_id, sink_->now));
  }
  erase(b);
  return Status();
}

void ConnectionManager::clear() {
  state_.reset();
  leaves_.reset();
  slots_.clear();  // mass teardown, not a lifecycle event
  free_.clear();
  std::fill(index_.begin(), index_.end(), Bucket{});
  std::fill(owners_.begin(), owners_.end(), ConnectionId{0});
}

std::vector<Revocation> ConnectionManager::fail_cable(const CableId& cable) {
  // Mask the cable first: victim releases of its channels then park in the
  // fault shadow instead of re-advertising a dead link.
  state_.fail_cable(cable.level, cable.lower_index, cable.port);

  // The victims are the owners of the cable's two channels: LinkState lets
  // one open circuit at most hold a directed channel, and a circuit crosses
  // a cable at most once (σ_h ≠ δ_h below H). Ascending ids are grant
  // order, the order a scan over the open circuits by id would give.
  if (owners_.empty()) build_owners();
  std::array<ConnectionId, 2> ids = {
      owners_[owner_slot(ChannelId{cable, Direction::kUp})],
      owners_[owner_slot(ChannelId{cable, Direction::kDown})]};
  FT_ASSERT(ids[0] == 0 || ids[0] != ids[1]);
  if (ids[0] > ids[1]) std::swap(ids[0], ids[1]);

  std::vector<Revocation> victims;
  for (const ConnectionId id : ids) {
    if (id == 0) continue;
    const std::size_t b = bucket_of(id);
    FT_ASSERT(b != index_.size());
    const Circuit& c = slots_[index_[b].slot];
    FT_ASSERT(path_crosses_cable(tree_, c.path, cable));
    victims.push_back(Revocation{id, Request{c.path.src, c.path.dst}});
    set_owner(c.path, 0);
    state_.release_path(tree_, c.path);
    leaves_.release(c.path.src, c.path.dst);
    if (c.tracked && sink_) {
      sink_->ledger(obs::FlightEvent::revoked(
          c.flight_id, sink_->now, static_cast<std::uint8_t>(cable.level),
          static_cast<std::uint16_t>(cable.port),
          static_cast<std::uint32_t>(cable.lower_index)));
    }
    erase(b);
  }
  return victims;
}

std::size_t ConnectionManager::owner_slot(const ChannelId& channel) const {
  const CableId& c = channel.cable;
  FT_ASSERT(c.level < state_.link_levels());
  FT_ASSERT(c.lower_index < state_.rows_at(c.level));
  FT_ASSERT(c.port < state_.ports_per_switch());
  const std::uint64_t cable = owner_offset_[c.level] +
                              c.lower_index * state_.ports_per_switch() +
                              c.port;
  return static_cast<std::size_t>(cable * 2 +
                                  (channel.direction == Direction::kDown));
}

void ConnectionManager::set_owner(const Path& path, ConnectionId owner) {
  // Claim free slots, or free held ones: Ulink(h, σ_h, P_h) and
  // Dlink(h, δ_h, P_h) for every level the circuit climbs.
  auto store = [&](const ChannelId& channel) {
    ConnectionId& slot = owners_[owner_slot(channel)];
    FT_ASSERT((slot == 0) != (owner == 0));
    slot = owner;
  };
  CircuitLabels labels = CircuitLabels::from_nodes(tree_, path.src, path.dst);
  for (std::uint32_t h = 0; h < path.ancestor_level; ++h) {
    const std::uint32_t port = path.ports[h];
    store(ChannelId{CableId{h, labels.sigma(), port}, Direction::kUp});
    store(ChannelId{CableId{h, labels.delta(), port}, Direction::kDown});
    labels.ascend(tree_, port);
  }
}

void ConnectionManager::build_owners() {
  owners_.assign(2 * owner_offset_.back(), 0);
  for (const Circuit& c : slots_) {
    if (c.id != 0) set_owner(c.path, c.id);
  }
}

Status ConnectionManager::audit_owners() const {
  if (owners_.empty()) return Status();
  std::uint64_t held = 0;
  ChannelBuffer channels;
  for (const Circuit& c : slots_) {
    if (c.id == 0) continue;
    const std::size_t n = expand_channels(tree_, c.path, channels);
    for (std::size_t i = 0; i < n; ++i) {
      const ConnectionId owner = owners_[owner_slot(channels[i])];
      if (owner != c.id) {
        return Status::error("owner index names connection " +
                             std::to_string(owner) + " for " +
                             to_string(channels[i]) +
                             ", held by open connection " +
                             std::to_string(c.id));
      }
    }
    held += n;
  }
  const auto owned = static_cast<std::uint64_t>(
      std::count_if(owners_.begin(), owners_.end(),
                    [](ConnectionId owner) { return owner != 0; }));
  if (owned != held) {
    return Status::error("owner index holds " + std::to_string(owned) +
                         " channels, open circuits hold " +
                         std::to_string(held));
  }
  return Status();
}

void ConnectionManager::repair_cable(const CableId& cable) {
  state_.repair_cable(cable.level, cable.lower_index, cable.port);
}

const Path* ConnectionManager::find(ConnectionId id) const {
  const std::size_t b = bucket_of(id);
  return b == index_.size() ? nullptr : &slots_[index_[b].slot].path;
}

double ConnectionManager::level_utilization(std::uint32_t level) const {
  const std::uint64_t total =
      state_.rows_at(level) * state_.ports_per_switch();
  if (total == 0) return 0.0;
  return static_cast<double>(state_.occupied_ulinks_at(level)) /
         static_cast<double>(total);
}

}  // namespace ftsched
