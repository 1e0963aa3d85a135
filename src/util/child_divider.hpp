// Strength-reduced division by a fat tree's child arity m.
//
// A leaf label's base-m digits are peeled one division at a time: the leaf
// switch of a PE is ⌊node/m⌋, the label tail at level h is ⌊leaf/m^h⌋ and
// two leaves meet at the level where their truncations coincide. The
// compiler cannot strength-reduce a runtime divisor, so the topology layer
// (FatTree's label helpers, expand_channels) and the schedulers' admission
// front end share this one divider: on power-of-two grids (every symmetric
// w = 8/16/64 configuration) each `div r64` becomes a shift.
#pragma once

#include <cstdint>

#include "util/bitvec.hpp"
#include "util/contracts.hpp"

namespace ftsched {

/// Lowest level at which two leaf switches share an ancestor: the number of
/// base-m truncations until the labels coincide.
inline std::uint32_t meet_level(std::uint64_t leaf_a, std::uint64_t leaf_b,
                                std::uint64_t m) {
  std::uint32_t level = 0;
  while (leaf_a != leaf_b) {
    ++level;
    leaf_a /= m;
    leaf_b /= m;
  }
  return level;
}

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

  std::uint64_t divisor() const { return m_; }
  bool is_pow2() const { return pow2_; }

  std::uint64_t operator()(std::uint64_t x) const {
    return pow2_ ? x >> shift_ : x / m_;
  }

  /// ⌊x / m^k⌋, where `m_pow_k` is m^k (the caller's place-value table):
  /// one shift by k digit widths when m is a power of two, one divide
  /// otherwise. m^k must fit in 64 bits, which keeps the shift below 64.
  std::uint64_t div_pow(std::uint64_t x, std::uint32_t k,
                        std::uint64_t m_pow_k) const {
    return pow2_ ? x >> (shift_ * k) : x / m_pow_k;
  }

  /// meet_level with the same strength reduction: for power-of-two m the
  /// truncation count is how many shift_-wide digit groups the XOR of the
  /// labels spans — no loop, no divides.
  std::uint32_t meet(std::uint64_t leaf_a, std::uint64_t leaf_b) const {
    if (pow2_ && shift_ != 0) {
      const std::uint64_t diff = leaf_a ^ leaf_b;
      if (diff == 0) return 0;
      const auto width =
          static_cast<std::uint32_t>(64 - __builtin_clzll(diff));
      return (width + shift_ - 1) / shift_;
    }
    return meet_level(leaf_a, leaf_b, m_);
  }

 private:
  std::uint64_t m_;
  std::uint32_t shift_;
  bool pow2_;
};

}  // namespace ftsched
