// Strength-reduced division by a fat tree's child arity m.
//
// A leaf label's base-m digits are peeled one division at a time: the leaf
// switch of a PE is ⌊node/m⌋, the label tail at level h is ⌊leaf/m^h⌋ and
// two leaves meet at the level where their truncations coincide. The
// compiler cannot strength-reduce a runtime divisor, so the topology layer
// (FatTree's label helpers, the CircuitLabels cursor) and the schedulers'
// admission front end share this one divider: on power-of-two grids (every symmetric
// w = 8/16/64 configuration) each `div r64` becomes a shift.
#pragma once

#include <cstdint>

#include "util/bitvec.hpp"
#include "util/contracts.hpp"

namespace ftsched {

/// Division by the loop-invariant child arity m.
class ChildDivider {
 public:
  explicit ChildDivider(std::uint64_t m)
      : m_(m),
        shift_((m & (m - 1)) == 0
                   ? static_cast<std::uint32_t>(bits::find_first_word(m))
                   : 0),
        pow2_((m & (m - 1)) == 0) {
    FT_REQUIRE(m >= 1);
  }

  std::uint64_t operator()(std::uint64_t x) const {
    return pow2_ ? x >> shift_ : x / m_;
  }

  /// Lowest level at which two leaf switches share an ancestor: the number
  /// of base-m truncations until the labels coincide. For power-of-two m it
  /// is how many shift_-wide digit groups the XOR of the labels spans — no
  /// loop, no divides.
  std::uint32_t meet(std::uint64_t leaf_a, std::uint64_t leaf_b) const {
    if (pow2_ && shift_ != 0) {
      const std::uint64_t diff = leaf_a ^ leaf_b;
      if (diff == 0) return 0;
      const auto width =
          static_cast<std::uint32_t>(64 - __builtin_clzll(diff));
      return (width + shift_ - 1) / shift_;
    }
    std::uint32_t level = 0;
    while (leaf_a != leaf_b) {
      ++level;
      leaf_a /= m_;
      leaf_b /= m_;
    }
    return level;
  }

 private:
  std::uint64_t m_;
  std::uint32_t shift_;
  bool pow2_;
};

}  // namespace ftsched
