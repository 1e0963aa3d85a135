// FatTree — validated FT(l, m, w) topology and the paper's label algebra.
//
// FT(l, m, w): l levels of switches; every switch has m children (down links)
// and w parents (up links, absent at the top level). Processing elements sit
// below level 0; node_count = m^l. Level h holds m^(l-1-h) · w^h switches.
// The paper's symmetric case is m == w ("FT(l, w)"); m ≠ w models slimmed
// (oversubscribed, w < m) or fattened (w > m) trees, which §2 of the paper
// notes the algorithm also covers.
//
// The topology is purely arithmetic — no adjacency tables are materialized.
// Switch SW(h, τ) is identified by the mixed-radix digit string of τ
// (low h digits base w = ports chosen so far; high digits base m = remaining
// child-position digits), and the Theorem-1 ascend rule is a digit shift.
#pragma once

#include <cstdint>

#include "topology/ids.hpp"
#include "util/child_divider.hpp"
#include "util/contracts.hpp"
#include "util/mixed_radix.hpp"
#include "util/result.hpp"

namespace ftsched {

struct FatTreeParams {
  std::uint32_t levels = 0;        ///< l  (>= 1)
  std::uint32_t child_arity = 0;   ///< m  (>= 2)
  std::uint32_t parent_arity = 0;  ///< w  (>= 1)

  /// The paper's FT(l, w): m == w.
  static FatTreeParams symmetric(std::uint32_t levels, std::uint32_t arity) {
    return FatTreeParams{levels, arity, arity};
  }

  /// Checks structural sanity and 64-bit representability of all counts.
  Status validate() const;

  friend bool operator==(const FatTreeParams&, const FatTreeParams&) = default;
};

class FatTree {
 public:
  /// Builds a validated topology; fails with a diagnostic on bad parameters.
  static Result<FatTree> create(const FatTreeParams& params);

  /// Convenience for the common symmetric case; aborts on invalid params
  /// (use create() when parameters come from user input).
  static FatTree symmetric(std::uint32_t levels, std::uint32_t arity);

  const FatTreeParams& params() const { return params_; }
  std::uint32_t levels() const { return params_.levels; }
  std::uint32_t child_arity() const { return params_.child_arity; }
  std::uint32_t parent_arity() const { return params_.parent_arity; }
  bool symmetric_arity() const {
    return params_.child_arity == params_.parent_arity;
  }

  /// Number of processing elements: m^l.
  std::uint64_t node_count() const { return node_count_; }

  /// Number of switches at level h: m^(l-1-h) · w^h.
  std::uint64_t switches_at(std::uint32_t level) const;

  /// Total switches across all levels.
  std::uint64_t total_switches() const;

  /// Number of cables between level h and level h+1: switches_at(h) · w.
  /// Requires h < l-1.
  std::uint64_t cables_at(std::uint32_t level) const;

  /// Label system of level-h switch indices (digit 0 = least significant).
  /// Digits 0..h-1 have radix w (port digits P_{h-1}..P_0 reversed);
  /// digits h..l-2 have radix m (the paper's t_h..t_{l-2}).
  const MixedRadix& label_system(std::uint32_t level) const;

  /// Division by the child arity m, strength-reduced once per tree: the
  /// divider behind leaf_switch, common_ancestor_level and CircuitLabels,
  /// and the one a scheduler's admission front end copies.
  const ChildDivider& child_divider() const { return divm_; }

  // --- Node <-> leaf switch -------------------------------------------------

  SwitchId leaf_switch(NodeId node) const {
    FT_REQUIRE(node < node_count_);
    return SwitchId{0, divm_(node)};
  }
  std::uint32_t leaf_port(NodeId node) const {
    FT_REQUIRE(node < node_count_);
    return static_cast<std::uint32_t>(node - divm_(node) * child_arity());
  }
  NodeId node_at(std::uint64_t leaf_switch_index, std::uint32_t port) const;

  // --- Theorem-1 neighbor algebra ------------------------------------------

  /// σ_{h+1} reached from SW(h, σ_h) through up-port `port` (Theorem 1):
  /// digit 0 becomes `port`, old digits 0..h-1 shift up one place, old digit
  /// h (the consumed source digit) is dropped.
  std::uint64_t ascend(std::uint32_t level, std::uint64_t index,
                       std::uint32_t port) const;

  SwitchId up_neighbor(const SwitchId& sw, std::uint32_t port) const;

  /// Inverse of ascend: the level-h switch under SW(h+1, index) reached
  /// through down-port `down_port` (∈ [0, m)), together with the up-port of
  /// that child the connecting cable uses (= digit 0 of `index`).
  struct DownHop {
    SwitchId child;
    std::uint32_t child_up_port = 0;
  };
  DownHop down_neighbor(const SwitchId& sw, std::uint32_t down_port) const;

  /// The down-port of up_neighbor(sw, port) that leads back to `sw`
  /// (= sw's digit at position `sw.level`, its remaining source digit).
  std::uint32_t parent_down_port(const SwitchId& sw) const;

  // --- Routing structure ----------------------------------------------------

  /// Lowest level H such that the leaf switches' labels agree on all digits
  /// >= H; a request between them climbs exactly H levels (H == 0 means the
  /// same leaf switch). Always < l. Computed as the number of base-m
  /// truncations until the labels coincide (ChildDivider::meet), with no
  /// digit string.
  std::uint32_t common_ancestor_level(std::uint64_t leaf_a,
                                      std::uint64_t leaf_b) const {
    FT_REQUIRE(leaf_a < switches_per_level_[0]);
    FT_REQUIRE(leaf_b < switches_per_level_[0]);
    return divm_.meet(leaf_a, leaf_b);
  }

 private:
  explicit FatTree(const FatTreeParams& params);

  FatTreeParams params_;
  std::uint64_t node_count_ = 0;
  SmallVec<std::uint64_t, kMaxTreeLevels> switches_per_level_;
  SmallVec<MixedRadix, kMaxTreeLevels> label_systems_;
  ChildDivider divm_;
};

}  // namespace ftsched
