// Property tests for the paper's Theorems 1 and 2 — the correctness core of
// the level-wise scheduler. Parameterized over symmetric and slimmed tree
// shapes (TEST_P), probing exhaustively on small trees and randomly on
// larger ones.
#include <gtest/gtest.h>

#include "topology/circuit_labels.hpp"
#include "topology/fat_tree.hpp"
#include "util/rng.hpp"

namespace ftsched {
namespace {

struct Shape {
  std::uint32_t levels;
  std::uint32_t m;
  std::uint32_t w;
};

std::string shape_name(const testing::TestParamInfo<Shape>& info) {
  return "FT_l" + std::to_string(info.param.levels) + "_m" +
         std::to_string(info.param.m) + "_w" + std::to_string(info.param.w);
}

class TheoremTest : public testing::TestWithParam<Shape> {
 protected:
  TheoremTest()
      : tree_(FatTree::create(
                  FatTreeParams{GetParam().levels, GetParam().m, GetParam().w})
                  .value()),
        rng_(0xfeedULL) {}

  /// Random port string of length `len`.
  DigitVec random_ports(std::uint32_t len) {
    DigitVec ports;
    for (std::uint32_t i = 0; i < len; ++i) {
      ports.push_back(
          static_cast<std::uint32_t>(rng_.below(tree_.parent_arity())));
    }
    return ports;
  }

  /// The level-`level` switch above `leaf` through `ports`, one ascend per
  /// hop.
  std::uint64_t climb(std::uint64_t leaf, std::uint32_t level,
                      const DigitVec& ports) const {
    for (std::uint32_t h = 0; h < level; ++h) {
      leaf = tree_.ascend(h, leaf, ports[h]);
    }
    return leaf;
  }

  FatTree tree_;
  Xoshiro256ss rng_;
};

// Theorem 1: ascend(h, τ, P) lands on the level-h+1 switch whose label is
// the digit-shift of τ — verified here against an independent formulation,
// eq. (5): τ_{h+1} = Σ_{i>h} t_i w^i + Σ_{i=1..h} t_{i-1} w^i + P_h, i.e.
// compose in the next level's system directly from the digit definitions.
TEST_P(TheoremTest, Theorem1DigitShift) {
  for (std::uint32_t h = 0; h + 1 < tree_.levels(); ++h) {
    const MixedRadix& from = tree_.label_system(h);
    const MixedRadix& to = tree_.label_system(h + 1);
    const std::uint64_t count = tree_.switches_at(h);
    const bool exhaustive = count <= 512;
    const std::uint64_t probes = exhaustive ? count : 512;
    for (std::uint64_t k = 0; k < probes; ++k) {
      const std::uint64_t tau = exhaustive ? k : rng_.below(count);
      const DigitVec t = from.decompose(tau);
      for (std::uint32_t p = 0; p < tree_.parent_arity(); ++p) {
        DigitVec expected;
        expected.push_back(p);
        for (std::uint32_t i = 0; i < h; ++i) expected.push_back(t[i]);
        for (std::size_t i = h + 1; i < t.size(); ++i) expected.push_back(t[i]);
        EXPECT_EQ(tree_.ascend(h, tau, p), to.compose(expected));
      }
    }
  }
}

// Theorem 2 (core claim): ascending from the SOURCE leaf with ports
// P_0…P_{H-1} and ascending from the DESTINATION leaf with the SAME ports
// reach the same level-H switch — hence the downward path exists and uses
// the same port numbers.
TEST_P(TheoremTest, Theorem2SameMeetingSwitch) {
  const std::uint64_t leaves = tree_.switches_at(0);
  for (int probe = 0; probe < 2000; ++probe) {
    const std::uint64_t a = rng_.below(leaves);
    const std::uint64_t b = rng_.below(leaves);
    const std::uint32_t H = tree_.common_ancestor_level(a, b);
    const DigitVec ports = random_ports(H);
    // Walk both sides with ascend() step by step.
    std::uint64_t sigma = a;
    std::uint64_t delta = b;
    for (std::uint32_t h = 0; h < H; ++h) {
      sigma = tree_.ascend(h, sigma, ports[h]);
      delta = tree_.ascend(h, delta, ports[h]);
    }
    EXPECT_EQ(sigma, delta)
        << "leaves " << a << "," << b << " H=" << H;
  }
}

// Theorem 2 (uniqueness direction): if two DIFFERENT port strings are used
// the sides meet at level H only if the strings are equal — i.e. the
// backward path is forced to reuse exactly P_0…P_{H-1} (eq. 13).
TEST_P(TheoremTest, Theorem2PortStringForced) {
  const std::uint64_t leaves = tree_.switches_at(0);
  if (tree_.parent_arity() < 2) GTEST_SKIP() << "needs >= 2 port choices";
  for (int probe = 0; probe < 500; ++probe) {
    const std::uint64_t a = rng_.below(leaves);
    const std::uint64_t b = rng_.below(leaves);
    const std::uint32_t H = tree_.common_ancestor_level(a, b);
    if (H == 0) continue;
    const DigitVec up = random_ports(H);
    DigitVec down = up;
    // Perturb one digit.
    const std::uint32_t pos = static_cast<std::uint32_t>(rng_.below(H));
    down[pos] = (down[pos] + 1) % tree_.parent_arity();
    EXPECT_NE(climb(a, H, up), climb(b, H, down))
        << "distinct port strings must not meet";
  }
}

// The CircuitLabels cursor must agree with step-by-step ascend on both
// sides at every level, the top one included.
TEST_P(TheoremTest, SideSwitchMatchesIterativeAscend) {
  const std::uint64_t leaves = tree_.switches_at(0);
  for (int probe = 0; probe < 500; ++probe) {
    const std::uint64_t a = rng_.below(leaves);
    const std::uint64_t b = rng_.below(leaves);
    const DigitVec ports = random_ports(tree_.levels() - 1);
    CircuitLabels labels = CircuitLabels::start(tree_, a, b);
    std::uint64_t sigma = a;
    std::uint64_t delta = b;
    for (std::uint32_t h = 0; h + 1 < tree_.levels(); ++h) {
      EXPECT_EQ(labels.sigma(), sigma);
      EXPECT_EQ(labels.delta(), delta);
      labels.ascend(tree_, ports[h]);
      sigma = tree_.ascend(h, sigma, ports[h]);
      delta = tree_.ascend(h, delta, ports[h]);
    }
    EXPECT_EQ(labels.sigma(), sigma);
    EXPECT_EQ(labels.delta(), delta);
    EXPECT_TRUE(labels.met()) << "every pair meets at the top level";
  }
}

// The ancestor level is minimal: below it the two sides are disjoint.
TEST_P(TheoremTest, AncestorLevelIsMinimal) {
  const std::uint64_t leaves = tree_.switches_at(0);
  for (int probe = 0; probe < 500; ++probe) {
    const std::uint64_t a = rng_.below(leaves);
    const std::uint64_t b = rng_.below(leaves);
    const std::uint32_t H = tree_.common_ancestor_level(a, b);
    if (H == 0) {
      EXPECT_EQ(a, b);
      continue;
    }
    const DigitVec ports = random_ports(H);
    EXPECT_NE(climb(a, H - 1, ports), climb(b, H - 1, ports));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TheoremTest,
    testing::Values(Shape{2, 4, 4}, Shape{2, 8, 8}, Shape{3, 4, 4},
                    Shape{3, 6, 6}, Shape{4, 3, 3}, Shape{4, 4, 4},
                    Shape{5, 2, 2},
                    // slimmed / fattened (m != w)
                    Shape{3, 4, 2}, Shape{3, 2, 4}, Shape{4, 3, 2},
                    Shape{2, 6, 3}),
    shape_name);

}  // namespace
}  // namespace ftsched
