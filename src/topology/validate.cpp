#include "topology/validate.hpp"

#include <map>

#include "topology/circuit_labels.hpp"
#include "util/rng.hpp"

namespace ftsched {

namespace {

Status check_updown_inverse(const FatTree& tree, const SwitchId& sw,
                            std::uint32_t port) {
  const SwitchId parent = tree.up_neighbor(sw, port);
  if (parent.level != sw.level + 1) {
    return Status::error("up_neighbor level mismatch at " + to_string(sw));
  }
  if (parent.index >= tree.switches_at(parent.level)) {
    return Status::error("up_neighbor index out of range at " + to_string(sw));
  }
  const std::uint32_t back_port = tree.parent_down_port(sw);
  const FatTree::DownHop hop = tree.down_neighbor(parent, back_port);
  if (hop.child != sw || hop.child_up_port != port) {
    return Status::error("descend(ascend(" + to_string(sw) + ", port " +
                         std::to_string(port) + ")) does not return; got " +
                         to_string(hop.child) + " up-port " +
                         std::to_string(hop.child_up_port));
  }
  return Status();
}

Status check_meeting_point(const FatTree& tree, std::uint64_t leaf_a,
                           std::uint64_t leaf_b, Xoshiro256ss& rng) {
  const std::uint32_t H = tree.common_ancestor_level(leaf_a, leaf_b);
  if (H != tree.common_ancestor_level(leaf_b, leaf_a)) {
    return Status::error("common_ancestor_level is not symmetric");
  }
  if (H >= tree.levels()) {
    return Status::error("common_ancestor_level exceeds tree height");
  }
  // Random port string; both sides must coincide at level H (Theorem 2) and,
  // when H > 0, must still differ at level H-1 (H is minimal).
  CircuitLabels labels = CircuitLabels::start(tree, leaf_a, leaf_b);
  bool apart_below = true;
  for (std::uint32_t h = 0; h < H; ++h) {
    apart_below = labels.sigma() != labels.delta();
    labels.ascend(tree,
                  static_cast<std::uint32_t>(rng.below(tree.parent_arity())));
  }
  if (labels.sigma() != labels.delta()) {
    return Status::error("leaves " + std::to_string(leaf_a) + "," +
                         std::to_string(leaf_b) +
                         " do not meet at their ancestor level " +
                         std::to_string(H));
  }
  if (!apart_below) {
    return Status::error("ancestor level " + std::to_string(H) +
                         " is not minimal for leaves " +
                         std::to_string(leaf_a) + "," + std::to_string(leaf_b));
  }
  return Status();
}

}  // namespace

Status validate_structure(const FatTree& tree, const ValidateOptions& options) {
  const std::uint32_t l = tree.levels();
  const std::uint64_t m = tree.child_arity();
  const std::uint64_t w = tree.parent_arity();

  // Per-level cable balance: the w up-cables of level h must be exactly the
  // m down-cables of level h+1.
  for (std::uint32_t h = 0; h + 1 < l; ++h) {
    if (tree.switches_at(h) * w != tree.switches_at(h + 1) * m) {
      return Status::error("cable count imbalance between levels " +
                           std::to_string(h) + " and " + std::to_string(h + 1));
    }
  }

  Xoshiro256ss rng(options.seed);
  const bool exhaustive = tree.total_switches() <= options.exhaustive_limit;

  // Ascend/descend inverse, and exactly-one-cable-per-pair.
  for (std::uint32_t h = 0; h + 1 < l; ++h) {
    const std::uint64_t count = tree.switches_at(h);
    const std::uint64_t probes = exhaustive ? count : options.samples;
    for (std::uint64_t p = 0; p < probes; ++p) {
      const std::uint64_t idx = exhaustive ? p : rng.below(count);
      const SwitchId sw{h, idx};
      std::map<std::uint64_t, std::uint32_t> parents_seen;
      for (std::uint32_t port = 0; port < w; ++port) {
        Status s = check_updown_inverse(tree, sw, port);
        if (!s.ok()) return s;
        const SwitchId parent = tree.up_neighbor(sw, port);
        auto [it, inserted] = parents_seen.emplace(parent.index, port);
        if (!inserted) {
          return Status::error(to_string(sw) + " reaches " + to_string(parent) +
                               " through ports " + std::to_string(it->second) +
                               " and " + std::to_string(port) +
                               " (duplicate cable)");
        }
      }
    }
  }

  // Down-side fan-out: every parent's m down-ports lead to m distinct
  // children.
  for (std::uint32_t h = 1; h < l; ++h) {
    const std::uint64_t count = tree.switches_at(h);
    const std::uint64_t probes = exhaustive ? count : options.samples;
    for (std::uint64_t p = 0; p < probes; ++p) {
      const std::uint64_t idx = exhaustive ? p : rng.below(count);
      const SwitchId sw{h, idx};
      std::map<std::uint64_t, std::uint32_t> children_seen;
      for (std::uint32_t port = 0; port < m; ++port) {
        const FatTree::DownHop hop =
            tree.down_neighbor(sw, static_cast<std::uint32_t>(port));
        auto [it, inserted] = children_seen.emplace(hop.child.index, port);
        if (!inserted) {
          return Status::error(to_string(sw) + " down-ports " +
                               std::to_string(it->second) + " and " +
                               std::to_string(port) +
                               " reach the same child");
        }
      }
    }
  }

  // Meeting-point property over leaf pairs.
  const std::uint64_t leaves = tree.switches_at(0);
  if (exhaustive && leaves <= 512) {
    for (std::uint64_t a = 0; a < leaves; ++a) {
      for (std::uint64_t b = 0; b < leaves; ++b) {
        Status s = check_meeting_point(tree, a, b, rng);
        if (!s.ok()) return s;
      }
    }
  } else {
    for (std::uint64_t i = 0; i < options.samples; ++i) {
      Status s = check_meeting_point(tree, rng.below(leaves),
                                     rng.below(leaves), rng);
      if (!s.ok()) return s;
    }
  }

  return Status();
}

}  // namespace ftsched
