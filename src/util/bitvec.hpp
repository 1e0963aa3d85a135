// BitVec — a dynamic bit vector tuned for the level-wise scheduler.
//
// The scheduler's inner loop is: AND the w-bit Ulink row of the source-side
// switch with the w-bit Dlink row of the destination-side switch and select
// the first set bit (paper Fig. 7, line 3-5). BitVec therefore provides
// word-wise AND into a destination, find-first-set, and popcount, all over a
// flat uint64_t buffer (Core Guidelines Per.16/19: compact, predictable).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/contracts.hpp"

namespace ftsched {

class BitVec {
 public:
  static constexpr std::size_t kWordBits = 64;

  BitVec() = default;

  /// Creates a vector of `size` bits, all set to `value`.
  explicit BitVec(std::size_t size, bool value = false) { assign(size, value); }

  void assign(std::size_t size, bool value) {
    size_ = size;
    words_.assign(word_count(size), value ? ~std::uint64_t{0} : 0);
    trim();
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool test(std::size_t i) const {
    FT_ASSERT(i < size_);
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }

  void set(std::size_t i, bool value = true) {
    FT_ASSERT(i < size_);
    const std::uint64_t mask = std::uint64_t{1} << (i % kWordBits);
    if (value) {
      words_[i / kWordBits] |= mask;
    } else {
      words_[i / kWordBits] &= ~mask;
    }
  }

  void reset(std::size_t i) { set(i, false); }

  void set_all() {
    for (auto& w : words_) w = ~std::uint64_t{0};
    trim();
  }

  void reset_all() {
    for (auto& w : words_) w = 0;
  }

  /// Number of set bits.
  std::size_t count() const;

  /// True if no bit is set.
  bool none() const;

  /// True if every bit is set.
  bool all() const;

  /// Index of the lowest set bit, or nullopt if none.
  std::optional<std::size_t> find_first() const;

  /// Index of the lowest set bit at position >= from, or nullopt.
  std::optional<std::size_t> find_next(std::size_t from) const;

  /// In-place AND with `other`. Sizes must match.
  BitVec& operator&=(const BitVec& other);
  /// In-place OR with `other`. Sizes must match.
  BitVec& operator|=(const BitVec& other);
  /// In-place XOR with `other`. Sizes must match.
  BitVec& operator^=(const BitVec& other);
  /// Flips every bit.
  void flip();

  friend BitVec operator&(BitVec a, const BitVec& b) { return a &= b; }
  friend BitVec operator|(BitVec a, const BitVec& b) { return a |= b; }
  friend BitVec operator^(BitVec a, const BitVec& b) { return a ^= b; }

  friend bool operator==(const BitVec& a, const BitVec& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

  /// Renders as "1011…" with bit 0 leftmost (port order used in the paper).
  std::string to_string() const;

  /// Raw word storage (read-only); used by LinkState's flat-matrix variant.
  const std::vector<std::uint64_t>& words() const { return words_; }

  static std::size_t word_count(std::size_t bits) {
    return (bits + kWordBits - 1) / kWordBits;
  }

 private:
  // Clears the unused high bits of the last word so count()/none() stay exact.
  void trim() {
    const std::size_t rem = size_ % kWordBits;
    if (rem != 0 && !words_.empty()) {
      words_.back() &= (std::uint64_t{1} << rem) - 1;
    }
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Free-function helpers over raw 64-bit words; these are the primitives the
/// flat link-state matrix and the hardware model share with BitVec.
namespace bits {

/// Index of lowest set bit; precondition: word != 0.
inline std::size_t find_first_word(std::uint64_t word) {
  FT_ASSERT(word != 0);
  return static_cast<std::size_t>(__builtin_ctzll(word));
}

/// Mask with the lowest `n` bits set (n <= 64).
inline std::uint64_t low_mask(std::size_t n) {
  FT_ASSERT(n <= 64);
  return n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// Number of set bits. A table-free SWAR count rather than
/// __builtin_popcountll: without -mpopcnt (no build enables it) the builtin
/// compiles to a call into libgcc's __popcountdi2.
inline std::size_t popcount(std::uint64_t word) {
  word -= (word >> 1) & 0x5555555555555555ULL;
  word = (word & 0x3333333333333333ULL) + ((word >> 2) & 0x3333333333333333ULL);
  word = (word + (word >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<std::size_t>((word * 0x0101010101010101ULL) >> 56);
}

}  // namespace bits

}  // namespace ftsched
