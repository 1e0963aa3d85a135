// FatTree's label helpers, the CircuitLabels cursor and expand_channels
// against a reference built from the digit algebra they replace:
// MixedRadix::decompose/compose for leaf labels and meet levels,
// step-by-step FatTree::ascend for every switch on a path. Exhaustive over
// every node, every leaf pair and every port vector, on power-of-two shapes
// (where ChildDivider divides by shifting), on shapes whose child arity is
// not a power of two (where it divides) and on m ≠ w shapes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "topology/circuit_labels.hpp"
#include "topology/fat_tree.hpp"
#include "topology/path.hpp"

namespace ftsched {
namespace {

/// Every port vector of length `len` over radix `w`, in odometer order.
std::vector<DigitVec> all_port_vectors(std::uint32_t len, std::uint32_t w) {
  std::vector<DigitVec> out;
  DigitVec ports;
  for (std::uint32_t i = 0; i < len; ++i) ports.push_back(0);
  while (true) {
    out.push_back(ports);
    std::uint32_t i = 0;
    while (i < len && ++ports[i] == w) ports[i++] = 0;
    if (i == len) return out;
  }
}

/// Leaf switch of `node`: its base-m digits with the leaf port dropped.
std::uint64_t ref_leaf_switch(const FatTree& tree, NodeId node) {
  const DigitVec digits =
      MixedRadix::uniform(tree.child_arity(), tree.levels()).decompose(node);
  DigitVec leaf;
  for (std::size_t i = 1; i < digits.size(); ++i) leaf.push_back(digits[i]);
  return tree.label_system(0).compose(leaf);
}

/// One above the highest digit at which the two leaf labels differ.
std::uint32_t ref_meet(const FatTree& tree, std::uint64_t a, std::uint64_t b) {
  const DigitVec da = tree.label_system(0).decompose(a);
  const DigitVec db = tree.label_system(0).decompose(b);
  std::uint32_t level = 0;
  for (std::uint32_t i = 0; i < da.size(); ++i) {
    if (da[i] != db[i]) level = i + 1;
  }
  return level;
}

/// σ_h reached from `leaf` through ports P_0 … P_{h-1}, one ascend per hop.
std::uint64_t ref_side_switch(const FatTree& tree, std::uint64_t leaf,
                              std::uint32_t level, const DigitVec& ports) {
  std::uint64_t sigma = leaf;
  for (std::uint32_t h = 0; h < level; ++h) {
    sigma = tree.ascend(h, sigma, ports[h]);
  }
  return sigma;
}

std::string shape_name(const testing::TestParamInfo<FatTreeParams>& info) {
  return "FT_l" + std::to_string(info.param.levels) + "_m" +
         std::to_string(info.param.child_arity) + "_w" +
         std::to_string(info.param.parent_arity);
}

class LabelHelpersTest : public testing::TestWithParam<FatTreeParams> {
 protected:
  LabelHelpersTest() : tree_(FatTree::create(GetParam()).value()) {}
  FatTree tree_;
};

TEST_P(LabelHelpersTest, LeafSwitchMatchesDigitReference) {
  for (NodeId node = 0; node < tree_.node_count(); ++node) {
    ASSERT_EQ(tree_.leaf_switch(node).index, ref_leaf_switch(tree_, node))
        << "node " << node;
    ASSERT_EQ(tree_.node_at(tree_.leaf_switch(node).index,
                            tree_.leaf_port(node)),
              node);
  }
}

// The cursor's σ_h and δ_h on both sides of every leaf pair, at every level
// up to the top (where the leaf remainder is empty), against one ascend per
// hop; met() must hold exactly where the two sides coincide.
TEST_P(LabelHelpersTest, SideSwitchMatchesAscendOnEveryPortVector) {
  const std::uint64_t leaves = tree_.switches_at(0);
  const std::uint32_t top = tree_.levels() - 1;
  const std::vector<DigitVec> vectors =
      all_port_vectors(top, tree_.parent_arity());
  for (std::uint64_t a = 0; a < leaves; ++a) {
    for (std::uint64_t b = 0; b < leaves; ++b) {
      for (const DigitVec& ports : vectors) {
        CircuitLabels labels = CircuitLabels::start(tree_, a, b);
        std::uint64_t sigma = a;
        std::uint64_t delta = b;
        for (std::uint32_t level = 0;; ++level) {
          ASSERT_EQ(labels.sigma(), sigma)
              << "leaves " << a << "," << b << " level " << level;
          ASSERT_EQ(labels.delta(), delta)
              << "leaves " << a << "," << b << " level " << level;
          ASSERT_EQ(labels.met(), sigma == delta)
              << "leaves " << a << "," << b << " level " << level;
          if (level == top) break;
          labels.ascend(tree_, ports[level]);
          sigma = tree_.ascend(level, sigma, ports[level]);
          delta = tree_.ascend(level, delta, ports[level]);
        }
      }
    }
  }
}

TEST_P(LabelHelpersTest, MeetAndChannelsMatchReferenceOnEveryLeafPair) {
  const std::uint64_t leaves = tree_.switches_at(0);
  const std::uint32_t m = tree_.child_arity();
  std::vector<std::vector<DigitVec>> vectors;
  for (std::uint32_t H = 0; H < tree_.levels(); ++H) {
    vectors.push_back(all_port_vectors(H, tree_.parent_arity()));
  }
  std::uint64_t paths = 0;
  for (std::uint64_t a = 0; a < leaves; ++a) {
    for (std::uint64_t b = 0; b < leaves; ++b) {
      const std::uint32_t H = tree_.common_ancestor_level(a, b);
      ASSERT_EQ(H, ref_meet(tree_, a, b)) << "leaves " << a << ", " << b;
      for (const DigitVec& ports : vectors[H]) {
        // The first PE of leaf a to the last PE of leaf b.
        const Path path{a * m, b * m + m - 1, H, ports};
        ChannelBuffer channels;
        const std::size_t n = expand_channels(tree_, path, channels);
        ASSERT_EQ(n, 2 * std::size_t{H});
        for (std::uint32_t h = 0; h < H; ++h) {
          const ChannelId up{
              CableId{h, ref_side_switch(tree_, a, h, ports), ports[h]},
              Direction::kUp};
          const ChannelId down{
              CableId{h, ref_side_switch(tree_, b, h, ports), ports[h]},
              Direction::kDown};
          ASSERT_EQ(channels[h], up) << to_string(path);
          ASSERT_EQ(channels[2 * H - 1 - h], down) << to_string(path);
        }
        ++paths;
      }
    }
  }
  EXPECT_GT(paths, leaves * leaves);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LabelHelpersTest,
    testing::Values(FatTreeParams{3, 4, 4}, FatTreeParams{3, 4, 2},
                    FatTreeParams{3, 6, 5}, FatTreeParams{4, 3, 3}),
    shape_name);

}  // namespace
}  // namespace ftsched
