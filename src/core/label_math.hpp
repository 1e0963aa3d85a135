// Shared Theorem-1 label arithmetic for the scheduler hot paths.
//
// Every scheduler family walks the same mixed-radix label space: a switch at
// level h is labelled σ_h = Pval_h + w^h·⌊leaf/m^h⌋, where Pval_h is the
// value of the already-chosen port-digit prefix P_{h-1}…P_0 (base w) and the
// tail is the leaf's remaining base-m digits. The hot loops carry (Pval, leaf_rest) incrementally —
//   Pval ← port + w·Pval,  rest ← rest / m
// — instead of calling FatTree::ascend / side_switch per hop. The division
// by m is util/child_divider.hpp's, shared with the topology layer. The
// identities are exercised head-to-head against the FatTree walkers by the
// reference-diff tests.
#pragma once

#include <array>
#include <cstdint>

#include "topology/fat_tree.hpp"
#include "util/child_divider.hpp"

namespace ftsched {

/// wpow[h] = parent_arity^h for h in [0, tree.levels()] — the weight of the
/// leaf-rest tail in a level-h label.
inline std::array<std::uint64_t, kMaxTreeLevels + 1> parent_arity_powers(
    const FatTree& tree) {
  std::array<std::uint64_t, kMaxTreeLevels + 1> wpow{};
  wpow[0] = 1;
  for (std::uint32_t h = 0; h < tree.levels(); ++h) {
    wpow[h + 1] = wpow[h] * tree.parent_arity();
  }
  return wpow;
}

}  // namespace ftsched
