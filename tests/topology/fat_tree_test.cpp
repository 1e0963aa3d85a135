#include "topology/fat_tree.hpp"

#include <gtest/gtest.h>

#include <set>

#include "topology/circuit_labels.hpp"

namespace ftsched {
namespace {

TEST(FatTreeParams, RejectsDegenerateShapes) {
  EXPECT_FALSE((FatTreeParams{0, 4, 4}.validate().ok()));
  EXPECT_FALSE((FatTreeParams{3, 1, 4}.validate().ok()));
  EXPECT_FALSE((FatTreeParams{3, 4, 0}.validate().ok()));
  EXPECT_FALSE((FatTreeParams{17, 2, 2}.validate().ok()));  // > kMaxTreeLevels
}

TEST(FatTreeParams, RejectsOverflowingCounts) {
  // 2^64 nodes would overflow; levels capped at 16 so use a huge arity.
  EXPECT_FALSE((FatTreeParams{16, 1u << 31, 2}.validate().ok()));
}

TEST(FatTreeParams, AcceptsPaperConfigurations) {
  // Every test point of Figure 9.
  for (std::uint32_t w : {8u, 16u, 32u, 48u, 64u}) {
    EXPECT_TRUE(FatTreeParams::symmetric(2, w).validate().ok());
  }
  for (std::uint32_t w : {4u, 6u, 8u, 12u, 16u}) {
    EXPECT_TRUE(FatTreeParams::symmetric(3, w).validate().ok());
  }
  for (std::uint32_t w : {3u, 4u, 5u, 6u, 7u}) {
    EXPECT_TRUE(FatTreeParams::symmetric(4, w).validate().ok());
  }
}

TEST(FatTree, CreateReportsErrorsAsValues) {
  auto bad = FatTree::create(FatTreeParams{0, 4, 4});
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("levels"), std::string::npos);
}

TEST(FatTree, PaperCountsSymmetric) {
  // FT(3,4): 64 nodes, 16 switches per level (paper Fig. 1(c)).
  const FatTree tree = FatTree::symmetric(3, 4);
  EXPECT_EQ(tree.node_count(), 64u);
  EXPECT_EQ(tree.switches_at(0), 16u);
  EXPECT_EQ(tree.switches_at(1), 16u);
  EXPECT_EQ(tree.switches_at(2), 16u);
  EXPECT_EQ(tree.total_switches(), 48u);
  EXPECT_EQ(tree.cables_at(0), 64u);
  EXPECT_EQ(tree.cables_at(1), 64u);
}

TEST(FatTree, TwoLevelLargestPaperPoint) {
  const FatTree tree = FatTree::symmetric(2, 64);
  EXPECT_EQ(tree.node_count(), 4096u);
  EXPECT_EQ(tree.switches_at(0), 64u);
  EXPECT_EQ(tree.switches_at(1), 64u);
}

TEST(FatTree, SlimmedTreeCounts) {
  // FT(3, m=4, w=2): oversubscribed 2:1 at each level.
  const FatTree tree =
      FatTree::create(FatTreeParams{3, 4, 2}).value();
  EXPECT_EQ(tree.node_count(), 64u);
  EXPECT_EQ(tree.switches_at(0), 16u);  // m^2
  EXPECT_EQ(tree.switches_at(1), 8u);   // m^1 * w^1
  EXPECT_EQ(tree.switches_at(2), 4u);   // w^2
  // Cable balance: 16*2 == 8*4 and 8*2 == 4*4.
  EXPECT_EQ(tree.cables_at(0), 32u);
  EXPECT_EQ(tree.cables_at(1), 16u);
}

TEST(FatTree, SingleLevelDegenerateTree) {
  const FatTree tree = FatTree::symmetric(1, 4);
  EXPECT_EQ(tree.node_count(), 4u);
  EXPECT_EQ(tree.switches_at(0), 1u);
  EXPECT_EQ(tree.common_ancestor_level(0, 0), 0u);
}

TEST(FatTree, LeafSwitchAndPortMapping) {
  // Paper Fig. 8 lives in FT(4,4): node 3 -> switch (0, 0) port 3;
  // node 95 -> switch (0, 23) port 3.
  const FatTree fig8 = FatTree::symmetric(4, 4);
  EXPECT_EQ(fig8.leaf_switch(3), (SwitchId{0, 0}));
  EXPECT_EQ(fig8.leaf_port(3), 3u);
  EXPECT_EQ(fig8.leaf_switch(95).index, 23u);
  EXPECT_EQ(fig8.leaf_port(95), 3u);
  EXPECT_EQ(fig8.node_at(23, 3), 95u);
  // Round trip for every node of a smaller tree.
  const FatTree tree = FatTree::symmetric(3, 4);
  for (NodeId n = 0; n < tree.node_count(); ++n) {
    EXPECT_EQ(tree.node_at(tree.leaf_switch(n).index, tree.leaf_port(n)), n);
  }
}

TEST(FatTree, LabelSystemRadices) {
  const FatTree tree = FatTree::create(FatTreeParams{4, 3, 5}).value();
  // Level 2 labels: digits 0,1 are port digits (radix w=5), digit 2 is a
  // source digit (radix m=3).
  const MixedRadix& sys = tree.label_system(2);
  EXPECT_EQ(sys.digit_count(), 3u);
  EXPECT_EQ(sys.radix(0), 5u);
  EXPECT_EQ(sys.radix(1), 5u);
  EXPECT_EQ(sys.radix(2), 3u);
  EXPECT_EQ(sys.cardinality(), tree.switches_at(2));
}

TEST(FatTree, CommonAncestorLevels) {
  const FatTree tree = FatTree::symmetric(3, 4);  // leaf labels: 2 base-4 digits
  EXPECT_EQ(tree.common_ancestor_level(5, 5), 0u);
  EXPECT_EQ(tree.common_ancestor_level(4, 5), 1u);   // 10 vs 11 base 4
  EXPECT_EQ(tree.common_ancestor_level(0, 15), 2u);  // 00 vs 33
  EXPECT_EQ(tree.common_ancestor_level(1, 13), 2u);  // 01 vs 31
  // Symmetry.
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      EXPECT_EQ(tree.common_ancestor_level(a, b),
                tree.common_ancestor_level(b, a));
    }
  }
}

TEST(FatTree, AscendMatchesPaperDigitRule) {
  // FT(4,4), source switch 000: ascend with P0 then P1 must give
  // s2 s1 P0 then s2 P0 P1 (paper §4 worked example).
  const FatTree tree = FatTree::symmetric(4, 4);
  const MixedRadix sys = MixedRadix::uniform(4, 3);
  const std::uint64_t sigma0 = sys.compose(DigitVec{2, 1, 3});  // "312"
  const std::uint64_t sigma1 = tree.ascend(0, sigma0, 0);
  EXPECT_EQ(tree.label_system(1).decompose(sigma1),
            (DigitVec{0, 1, 3}));  // s2 s1 P0 = 3 1 0 (LSB first: 0,1,3)
  const std::uint64_t sigma2 = tree.ascend(1, sigma1, 2);
  EXPECT_EQ(tree.label_system(2).decompose(sigma2),
            (DigitVec{2, 0, 3}));  // s2 P0 P1 = 3 0 2
}

TEST(FatTree, UpNeighborsAreDistinctPerPort) {
  const FatTree tree = FatTree::symmetric(3, 4);
  for (std::uint64_t sw = 0; sw < tree.switches_at(0); ++sw) {
    std::set<std::uint64_t> parents;
    for (std::uint32_t p = 0; p < 4; ++p) {
      parents.insert(tree.up_neighbor(SwitchId{0, sw}, p).index);
    }
    EXPECT_EQ(parents.size(), 4u);
  }
}

TEST(FatTree, DownNeighborInvertsAscend) {
  const FatTree tree = FatTree::create(FatTreeParams{3, 4, 3}).value();
  for (std::uint32_t h = 0; h + 1 < tree.levels(); ++h) {
    for (std::uint64_t i = 0; i < tree.switches_at(h); ++i) {
      const SwitchId sw{h, i};
      const std::uint32_t back = tree.parent_down_port(sw);
      for (std::uint32_t p = 0; p < tree.parent_arity(); ++p) {
        const SwitchId parent = tree.up_neighbor(sw, p);
        const FatTree::DownHop hop = tree.down_neighbor(parent, back);
        EXPECT_EQ(hop.child, sw);
        EXPECT_EQ(hop.child_up_port, p);
      }
    }
  }
}

TEST(FatTree, SideSwitchWithNoPortsIsLeafLabel) {
  const FatTree tree = FatTree::symmetric(3, 4);
  const std::uint64_t leaves = tree.switches_at(0);
  for (std::uint64_t leaf = 0; leaf < leaves; ++leaf) {
    const CircuitLabels labels =
        CircuitLabels::start(tree, leaf, leaves - 1 - leaf);
    EXPECT_EQ(labels.sigma(), leaf);
    EXPECT_EQ(labels.delta(), leaves - 1 - leaf);
    EXPECT_EQ(labels.met(), 2 * leaf == leaves - 1);
  }
}

TEST(FatTreeDeath, AscendAboveTopRejected) {
  const FatTree tree = FatTree::symmetric(2, 4);
  EXPECT_DEATH(tree.ascend(1, 0, 0), "precondition");
}

TEST(FatTreeDeath, PortOutOfRangeRejected) {
  const FatTree tree = FatTree::symmetric(3, 4);
  EXPECT_DEATH(tree.ascend(0, 0, 4), "precondition");
}

}  // namespace
}  // namespace ftsched
