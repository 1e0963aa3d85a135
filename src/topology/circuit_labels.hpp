// CircuitLabels — the Theorem-1 label walk of one circuit, a level at a time.
//
// A circuit from leaf switch σ_0 to leaf switch δ_0 is fixed by its port
// digits P_0 … P_{H-1} (Theorems 1–2). At level h both sides share the port
// prefix Pval_h = [P_{h-1} … P_0]_w, and each keeps its own leaf's unconsumed
// base-m digits ⌊leaf/m^h⌋ at place w^h:
//   σ_h = Pval_h + w^h·⌊σ_0/m^h⌋,   δ_h = Pval_h + w^h·⌊δ_0/m^h⌋.
// Climbing through port P_h is then three integer steps,
//   Pval ← P_h + w·Pval,  w^h ← w·w^h,  rest ← rest / m  (both sides),
// with the division strength-reduced by the tree's ChildDivider. The sides
// meet (σ_h == δ_h) exactly when the remainders agree, at h = H. At the top
// level the remainders are 0, so the label is the port prefix alone.
//
// This cursor is the one fast label walk of the library: the schedulers,
// the path helpers, LinkState's path operations, the connection manager and
// the simulators all run it. FatTree::ascend's mixed-radix digit shift stays
// the independent reference the tests compare it against, and the
// verifier keeps its own derivation (docs/PERFORMANCE.md §6).
#pragma once

#include <cstdint>

#include "topology/fat_tree.hpp"
#include "topology/ids.hpp"
#include "util/child_divider.hpp"
#include "util/contracts.hpp"

namespace ftsched {

class CircuitLabels {
 public:
  CircuitLabels() = default;

  /// The cursor at level 0: σ_0 = src_leaf, δ_0 = dst_leaf.
  static CircuitLabels start(const FatTree& tree, std::uint64_t src_leaf,
                             std::uint64_t dst_leaf) {
    FT_ASSERT(src_leaf < tree.switches_at(0));
    FT_ASSERT(dst_leaf < tree.switches_at(0));
    return CircuitLabels(src_leaf, dst_leaf);
  }

  /// The cursor at the leaf switches of PEs `src` and `dst`.
  static CircuitLabels from_nodes(const FatTree& tree, NodeId src,
                                  NodeId dst) {
    return CircuitLabels(tree.leaf_switch(src).index,
                         tree.leaf_switch(dst).index);
  }

  /// σ_h, the source-side switch at the current level.
  std::uint64_t sigma() const { return pval_ + wpow_ * src_rest_; }
  /// δ_h, the destination-side switch at the current level.
  std::uint64_t delta() const { return pval_ + wpow_ * dst_rest_; }
  /// Whether both sides stand on one switch (the current level is H).
  bool met() const { return src_rest_ == dst_rest_; }

  /// Climbs both sides one level through up-port `port` (< w).
  void ascend(const FatTree& tree, std::uint32_t port) {
    const std::uint64_t w = tree.parent_arity();
    FT_ASSERT(port < w);
    const ChildDivider& divm = tree.child_divider();
    pval_ = port + w * pval_;
    wpow_ *= w;
    src_rest_ = divm(src_rest_);
    dst_rest_ = divm(dst_rest_);
  }

 private:
  CircuitLabels(std::uint64_t src_leaf, std::uint64_t dst_leaf)
      : src_rest_(src_leaf), dst_rest_(dst_leaf) {}

  std::uint64_t pval_ = 0;      ///< Pval_h, the shared port prefix
  std::uint64_t wpow_ = 1;      ///< w^h, the place of the leaf remainder
  std::uint64_t src_rest_ = 0;  ///< ⌊σ_0 / m^h⌋
  std::uint64_t dst_rest_ = 0;  ///< ⌊δ_0 / m^h⌋
};

static_assert(sizeof(CircuitLabels) <= 32);

}  // namespace ftsched
