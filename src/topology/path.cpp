#include "topology/path.hpp"

#include "topology/circuit_labels.hpp"

namespace ftsched {

PathExpansion expand_path(const FatTree& tree, const Path& path) {
  FT_REQUIRE(check_path_legal(tree, path).ok());
  const std::uint32_t H = path.ancestor_level;

  PathExpansion out;
  // σ_0 … σ_H, then δ_{H-1} … δ_0: both ends filled in one walk.
  out.switches.resize(2 * static_cast<std::size_t>(H) + 1);
  CircuitLabels labels = CircuitLabels::from_nodes(tree, path.src, path.dst);
  for (std::uint32_t h = 0; h < H; ++h) {
    out.switches[h] = SwitchId{h, labels.sigma()};
    out.switches[2 * H - h] = SwitchId{h, labels.delta()};
    labels.ascend(tree, path.ports[h]);
  }
  out.switches[H] = SwitchId{H, labels.sigma()};
  out.channels.resize(2 * static_cast<std::size_t>(H));
  expand_channels(tree, path, out.channels);
  return out;
}

std::size_t expand_channels(const FatTree& tree, const Path& path,
                            std::span<ChannelId> out) {
  const std::uint32_t H = path.ancestor_level;
  FT_REQUIRE(H < tree.levels());
  FT_REQUIRE(path.ports.size() == H);
  FT_REQUIRE(out.size() >= 2 * static_cast<std::size_t>(H));
  CircuitLabels labels = CircuitLabels::from_nodes(tree, path.src, path.dst);
  for (std::uint32_t h = 0; h < H; ++h) {
    const std::uint32_t port = path.ports[h];
    FT_REQUIRE(port < tree.parent_arity());
    // Ulink(h, σ_h, P_h) ascending, Dlink(h, δ_h, P_h) descending.
    out[h] = ChannelId{CableId{h, labels.sigma(), port}, Direction::kUp};
    out[2 * H - 1 - h] =
        ChannelId{CableId{h, labels.delta(), port}, Direction::kDown};
    labels.ascend(tree, port);
  }
  return 2 * static_cast<std::size_t>(H);
}

Status check_path_legal(const FatTree& tree, const Path& path) {
  if (path.src >= tree.node_count() || path.dst >= tree.node_count()) {
    return Status::error("path endpoints out of range for this tree");
  }
  const std::uint64_t src_leaf = tree.leaf_switch(path.src).index;
  const std::uint64_t dst_leaf = tree.leaf_switch(path.dst).index;
  const std::uint32_t true_h = tree.common_ancestor_level(src_leaf, dst_leaf);
  if (path.ancestor_level != true_h) {
    return Status::error("path ancestor_level " +
                         std::to_string(path.ancestor_level) +
                         " differs from the true common-ancestor level " +
                         std::to_string(true_h));
  }
  if (path.ports.size() != true_h) {
    return Status::error("path must carry exactly H = " +
                         std::to_string(true_h) + " port digits, got " +
                         std::to_string(path.ports.size()));
  }
  for (std::size_t i = 0; i < path.ports.size(); ++i) {
    if (path.ports[i] >= tree.parent_arity()) {
      return Status::error("port P_" + std::to_string(i) + " = " +
                           std::to_string(path.ports[i]) +
                           " exceeds parent arity");
    }
  }
  // Theorem 2: with identical ports both sides must reach the same level-H
  // switch; equality here is what makes the downward path exist at all.
  CircuitLabels labels = CircuitLabels::start(tree, src_leaf, dst_leaf);
  for (std::uint32_t h = 0; h < true_h; ++h) {
    labels.ascend(tree, path.ports[h]);
  }
  const std::uint64_t sigma_h = labels.sigma();
  const std::uint64_t delta_h = labels.delta();
  if (sigma_h != delta_h) {
    return Status::error("up and down sides do not meet at level " +
                         std::to_string(true_h) + " (σ_H=" +
                         std::to_string(sigma_h) + ", δ_H=" +
                         std::to_string(delta_h) + ")");
  }
  return Status();
}

bool path_crosses_cable(const FatTree& tree, const Path& path,
                        const CableId& cable) {
  if (cable.level >= path.ancestor_level) return false;
  if (path.ports[cable.level] != cable.port) return false;
  CircuitLabels labels = CircuitLabels::from_nodes(tree, path.src, path.dst);
  for (std::uint32_t h = 0; h < cable.level; ++h) {
    labels.ascend(tree, path.ports[h]);
  }
  return labels.sigma() == cable.lower_index ||
         labels.delta() == cable.lower_index;
}

std::string to_string(const Path& path) {
  std::string out = "node " + std::to_string(path.src) + " -> node " +
                    std::to_string(path.dst) + " via P=(";
  for (std::size_t i = 0; i < path.ports.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(path.ports[i]);
  }
  out += ")";
  return out;
}

}  // namespace ftsched
