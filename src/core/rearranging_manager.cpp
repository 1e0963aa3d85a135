#include "core/rearranging_manager.hpp"

#include <span>

#include "topology/path.hpp"

namespace ftsched {

RearrangingConnectionManager::RearrangingConnectionManager(
    const FatTree& tree, RearrangeOptions options)
    : tree_(tree),
      options_(options),
      state_(tree),
      leaves_(tree.node_count()) {}

std::optional<DigitVec> RearrangingConnectionManager::walk(
    std::uint64_t src_leaf, std::uint64_t dst_leaf, std::uint32_t ancestor,
    Block& block) const {
  DigitVec ports;
  std::uint64_t sigma = src_leaf;
  std::uint64_t delta = dst_leaf;
  for (std::uint32_t h = 0; h < ancestor; ++h) {
    const auto port = state_.first_available_port(h, sigma, delta);
    if (!port) {
      block = Block{h, sigma, delta};
      return std::nullopt;
    }
    ports.push_back(*port);
    sigma = tree_.ascend(h, sigma, *port);
    delta = tree_.ascend(h, delta, *port);
  }
  return ports;
}

void RearrangingConnectionManager::install(ConnectionId id, const Path& path) {
  state_.occupy_path(tree_, path);
  ChannelBuffer channels;
  const std::size_t n = expand_channels(tree_, path, channels);
  for (const ChannelId& ch : std::span(channels).first(n)) {
    [[maybe_unused]] const bool inserted =
        channel_owner_.emplace(ch, id).second;
    FT_ASSERT(inserted);
  }
  connections_[id] = path;
}

void RearrangingConnectionManager::uninstall(ConnectionId id,
                                             const Path& path) {
  state_.release_path(tree_, path);
  ChannelBuffer channels;
  const std::size_t n = expand_channels(tree_, path, channels);
  for (const ChannelId& ch : std::span(channels).first(n)) {
    const auto it = channel_owner_.find(ch);
    FT_ASSERT(it != channel_owner_.end() && it->second == id);
    channel_owner_.erase(it);
  }
  connections_.erase(id);
}

bool RearrangingConnectionManager::move_off(const ChannelId& contended) {
  const auto owner_it = channel_owner_.find(contended);
  if (owner_it == channel_owner_.end()) {
    return false;  // faulted or externally held channel: not movable
  }
  const ConnectionId id = owner_it->second;
  const Path old_path = connections_.at(id);

  uninstall(id, old_path);
  // Mask the contended channel so the re-walk cannot pick it again.
  if (contended.direction == Direction::kUp) {
    state_.set_ulink(contended.cable.level, contended.cable.lower_index,
                     contended.cable.port, false);
  } else {
    state_.set_dlink(contended.cable.level, contended.cable.lower_index,
                     contended.cable.port, false);
  }

  const std::uint64_t src_leaf = tree_.leaf_switch(old_path.src).index;
  const std::uint64_t dst_leaf = tree_.leaf_switch(old_path.dst).index;
  Block block{};
  const auto ports =
      walk(src_leaf, dst_leaf, old_path.ancestor_level, block);

  // Unmask before committing either way.
  if (contended.direction == Direction::kUp) {
    state_.set_ulink(contended.cable.level, contended.cable.lower_index,
                     contended.cable.port, true);
  } else {
    state_.set_dlink(contended.cable.level, contended.cable.lower_index,
                     contended.cable.port, true);
  }

  if (ports) {
    Path moved = old_path;
    moved.ports = *ports;
    install(id, moved);
    ++stats_.moves;
    return true;
  }
  // No alternative: restore the original placement (channels are free).
  install(id, old_path);
  return false;
}

std::optional<ConnectionId> RearrangingConnectionManager::open(
    const Request& request) {
  FT_REQUIRE(request.src < tree_.node_count());
  FT_REQUIRE(request.dst < tree_.node_count());
  ++stats_.opens;
  if (!leaves_.try_claim(request.src, request.dst)) {
    ++stats_.rejections;
    return std::nullopt;
  }
  const std::uint64_t src_leaf = tree_.leaf_switch(request.src).index;
  const std::uint64_t dst_leaf = tree_.leaf_switch(request.dst).index;
  const std::uint32_t ancestor =
      tree_.common_ancestor_level(src_leaf, dst_leaf);

  std::uint32_t budget = options_.max_moves;
  bool rearranged = false;
  while (true) {
    Block block{};
    const auto ports = walk(src_leaf, dst_leaf, ancestor, block);
    if (ports) {
      const ConnectionId id = next_id_++;
      install(id, Path{request.src, request.dst, ancestor, *ports});
      if (rearranged) {
        ++stats_.rearranged_grants;
      } else {
        ++stats_.direct_grants;
      }
      return id;
    }
    // Try to free one port of the blocking row pair: a port held on exactly
    // one side by a movable circuit.
    bool fixed = false;
    for (std::uint32_t p = 0; p < tree_.parent_arity() && budget > 0; ++p) {
      const bool u_free = state_.ulink(block.level, block.sigma, p);
      const bool d_free = state_.dlink(block.level, block.delta, p);
      FT_ASSERT(!(u_free && d_free));  // walk() would have taken it
      ChannelId contended;
      if (!u_free && d_free) {
        contended = ChannelId{CableId{block.level, block.sigma, p},
                              Direction::kUp};
      } else if (u_free && !d_free) {
        contended = ChannelId{CableId{block.level, block.delta, p},
                              Direction::kDown};
      } else {
        continue;  // both sides blocked: would need two moves, skip
      }
      if (move_off(contended)) {
        --budget;
        fixed = true;
        rearranged = true;
        break;
      }
    }
    if (!fixed) {
      leaves_.release(request.src, request.dst);
      ++stats_.rejections;
      return std::nullopt;
    }
  }
}

Status RearrangingConnectionManager::close(ConnectionId id) {
  const auto it = connections_.find(id);
  if (it == connections_.end()) {
    return Status::error("unknown connection id " + std::to_string(id));
  }
  const Path path = it->second;
  uninstall(id, path);
  leaves_.release(path.src, path.dst);
  return Status();
}

void RearrangingConnectionManager::clear() {
  state_.reset();
  leaves_.reset();
  connections_.clear();
  channel_owner_.clear();
}

const Path* RearrangingConnectionManager::find(ConnectionId id) const {
  const auto it = connections_.find(id);
  return it == connections_.end() ? nullptr : &it->second;
}

}  // namespace ftsched
