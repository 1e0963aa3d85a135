// Width-boundary and shift-validity tests for BitVec (util/bitvec.hpp).
//
// The interesting widths straddle the 64-bit word size: 0 (no storage),
// 63 (one partial word), 64 (one exact word — the trim mask's n==64 edge),
// and 65 (a second, nearly-empty word). Every shift in BitVec and
// bits::low_mask must stay < 64 on these paths; the ASan+UBSan preset runs
// this file with -fsanitize=undefined, which turns any shift-width mistake
// into a hard failure.
#include "util/bitvec.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ftsched {
namespace {

TEST(BitVecEdgeTest, WidthZero) {
  BitVec v(0);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.count(), 0u);
  EXPECT_TRUE(v.none());
  EXPECT_TRUE(v.all());  // vacuously
  EXPECT_EQ(v.find_first(), std::nullopt);
  EXPECT_EQ(v.find_next(0), std::nullopt);
  EXPECT_EQ(v.to_string(), "");

  // Mutations on the empty vector are no-ops, not UB.
  v.set_all();
  EXPECT_EQ(v.count(), 0u);
  v.flip();
  EXPECT_EQ(v.count(), 0u);

  BitVec w(0);
  v &= w;
  EXPECT_EQ(v, w);
}

TEST(BitVecEdgeTest, WidthZeroConstructedFull) {
  // assign(0, true) must not write a word it does not have.
  BitVec v(0, true);
  EXPECT_TRUE(v.none());
  EXPECT_TRUE(v.words().empty());
}

class BitVecWidthTest : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(WordBoundaries, BitVecWidthTest,
                         ::testing::Values(1u, 63u, 64u, 65u, 128u, 129u));

TEST_P(BitVecWidthTest, SetAllMatchesWidthExactly) {
  const std::size_t n = GetParam();
  BitVec v(n);
  v.set_all();
  EXPECT_EQ(v.count(), n);  // trim() must clear the slack bits
  EXPECT_TRUE(v.all());
  EXPECT_FALSE(v.none());
}

TEST_P(BitVecWidthTest, ConstructFullMatchesWidthExactly) {
  const std::size_t n = GetParam();
  BitVec v(n, true);
  EXPECT_EQ(v.count(), n);
  EXPECT_TRUE(v.all());
}

TEST_P(BitVecWidthTest, FlipOfEmptyIsFull) {
  const std::size_t n = GetParam();
  BitVec v(n);
  v.flip();
  EXPECT_EQ(v.count(), n);
  v.flip();
  EXPECT_TRUE(v.none());
}

TEST_P(BitVecWidthTest, LastBitRoundTrips) {
  const std::size_t n = GetParam();
  BitVec v(n);
  v.set(n - 1);
  EXPECT_TRUE(v.test(n - 1));
  EXPECT_EQ(v.count(), 1u);
  EXPECT_EQ(v.find_first(), n - 1);
  EXPECT_EQ(v.find_next(n - 1), n - 1);
  v.reset(n - 1);
  EXPECT_TRUE(v.none());
}

TEST_P(BitVecWidthTest, FindNextPastEndIsEmpty) {
  const std::size_t n = GetParam();
  BitVec v(n, true);
  EXPECT_EQ(v.find_next(n), std::nullopt);
  EXPECT_EQ(v.find_next(n + 1000), std::nullopt);
}

TEST(BitVecEdgeTest, FindCrossesWordBoundary) {
  BitVec v(130);
  v.set(63);
  v.set(64);
  v.set(129);
  EXPECT_EQ(v.find_first(), 63u);
  EXPECT_EQ(v.find_next(64), 64u);
  EXPECT_EQ(v.find_next(65), 129u);
  EXPECT_EQ(v.find_next(130), std::nullopt);
}

TEST(BitVecEdgeTest, AndAcrossWordBoundary) {
  BitVec a(65, true);
  BitVec b(65);
  b.set(0);
  b.set(64);
  a &= b;
  EXPECT_EQ(a.count(), 2u);
  EXPECT_TRUE(a.test(0));
  EXPECT_TRUE(a.test(64));
}

TEST(BitVecEdgeTest, XorIsInvolution) {
  BitVec a(65);
  a.set(1);
  a.set(64);
  BitVec mask(65, true);
  const BitVec original = a;
  a ^= mask;
  EXPECT_EQ(a.count(), 65u - 2u);
  a ^= mask;
  EXPECT_EQ(a, original);
}

// --- bits:: word helpers ----------------------------------------------------

TEST(BitsEdgeTest, LowMaskShiftValidity) {
  // n == 64 takes the branch that avoids `1 << 64` (UB); n == 0 must yield
  // an empty mask via `(1 << 0) - 1`, not a wrapped shift.
  EXPECT_EQ(bits::low_mask(0), 0u);
  EXPECT_EQ(bits::low_mask(1), 1u);
  EXPECT_EQ(bits::low_mask(63), ~std::uint64_t{0} >> 1);
  EXPECT_EQ(bits::low_mask(64), ~std::uint64_t{0});
}

TEST(BitsEdgeTest, FindFirstWordBoundaries) {
  EXPECT_EQ(bits::find_first_word(1u), 0u);
  EXPECT_EQ(bits::find_first_word(std::uint64_t{1} << 63), 63u);
  EXPECT_EQ(bits::find_first_word((std::uint64_t{1} << 63) | 1u), 0u);
}

TEST(BitsEdgeTest, PopcountBoundaries) {
  EXPECT_EQ(bits::popcount(0), 0u);
  EXPECT_EQ(bits::popcount(~std::uint64_t{0}), 64u);
  EXPECT_EQ(bits::popcount(std::uint64_t{1} << 63), 1u);
}

// The SWAR popcount against a one-bit-at-a-time count over edge words:
// empty, full, every single bit, alternating and byte patterns, every low
// and high mask, and the high bit with each other bit.
TEST(BitsEdgeTest, PopcountMatchesBitLoop) {
  auto loop_count = [](std::uint64_t word) {
    std::size_t count = 0;
    for (int bit = 0; bit < 64; ++bit) count += (word >> bit) & 1u;
    return count;
  };
  std::vector<std::uint64_t> words{0,
                                   ~std::uint64_t{0},
                                   0x5555555555555555ULL,
                                   0xAAAAAAAAAAAAAAAAULL,
                                   0x00FF00FF00FF00FFULL,
                                   0xFF00FF00FF00FF00ULL,
                                   0x0F0F0F0F0F0F0F0FULL,
                                   0x8000000000000001ULL};
  for (int bit = 0; bit < 64; ++bit) {
    const std::uint64_t one = std::uint64_t{1} << bit;
    words.push_back(one);
    words.push_back(~one);
    words.push_back(one - 1);     // low mask
    words.push_back(~(one - 1));  // high mask
    words.push_back((std::uint64_t{1} << 63) | one);
  }
  for (const std::uint64_t word : words) {
    EXPECT_EQ(bits::popcount(word), loop_count(word)) << std::hex << word;
  }
}

}  // namespace
}  // namespace ftsched
