#include "linkstate/link_state.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/port_picker.hpp"

namespace ftsched {
namespace {

FatTree make_ft34() { return FatTree::symmetric(3, 4); }

TEST(LinkState, StartsFullyAvailable) {
  const FatTree tree = make_ft34();
  LinkState state(tree);
  EXPECT_EQ(state.link_levels(), 2u);
  EXPECT_EQ(state.ports_per_switch(), 4u);
  for (std::uint32_t h = 0; h < 2; ++h) {
    EXPECT_EQ(state.rows_at(h), 16u);
    EXPECT_EQ(state.occupied_ulinks_at(h), 0u);
    EXPECT_EQ(state.occupied_dlinks_at(h), 0u);
    for (std::uint64_t sw = 0; sw < 16; ++sw) {
      for (std::uint32_t p = 0; p < 4; ++p) {
        EXPECT_TRUE(state.ulink(h, sw, p));
        EXPECT_TRUE(state.dlink(h, sw, p));
      }
    }
  }
  EXPECT_TRUE(state.audit().ok());
}

TEST(LinkState, OccupyClearsBothSides) {
  const FatTree tree = make_ft34();
  LinkState state(tree);
  state.occupy(0, 2, 9, 1);
  EXPECT_FALSE(state.ulink(0, 2, 1));
  EXPECT_FALSE(state.dlink(0, 9, 1));
  EXPECT_TRUE(state.ulink(0, 9, 1));  // destination's ulink untouched
  EXPECT_TRUE(state.dlink(0, 2, 1));  // source's dlink untouched
  EXPECT_EQ(state.occupied_ulinks_at(0), 1u);
  EXPECT_EQ(state.occupied_dlinks_at(0), 1u);
  EXPECT_EQ(state.total_occupied(), 2u);
  EXPECT_TRUE(state.audit().ok());
}

TEST(LinkState, ReleaseRestores) {
  const FatTree tree = make_ft34();
  LinkState state(tree);
  state.occupy(1, 3, 7, 2);
  state.release(1, 3, 7, 2);
  EXPECT_TRUE(state.ulink(1, 3, 2));
  EXPECT_TRUE(state.dlink(1, 7, 2));
  EXPECT_EQ(state.total_occupied(), 0u);
}

TEST(LinkState, FirstAvailablePortIsLowestCommon) {
  const FatTree tree = make_ft34();
  LinkState state(tree);
  // Block port 0 on the source's up side, port 1 on the destination's down
  // side; first common port must be 2.
  state.set_ulink(0, 2, 0, false);
  state.set_dlink(0, 9, 1, false);
  auto port = state.first_available_port(0, 2, 9);
  ASSERT_TRUE(port.has_value());
  EXPECT_EQ(*port, 2u);
}

TEST(LinkState, FirstAvailablePortNulloptWhenDisjoint) {
  const FatTree tree = make_ft34();
  LinkState state(tree);
  // Source free on {0,1}, destination free on {2,3}: AND is empty.
  state.set_ulink(0, 2, 2, false);
  state.set_ulink(0, 2, 3, false);
  state.set_dlink(0, 9, 0, false);
  state.set_dlink(0, 9, 1, false);
  EXPECT_FALSE(state.first_available_port(0, 2, 9).has_value());
  const LinkState::LevelView view = state.level_view(0);
  EXPECT_EQ(view.popcount(view.and_row(2, 9)), 0u);
}

TEST(LinkState, NextAvailablePortSkips) {
  const FatTree tree = make_ft34();
  LinkState state(tree);
  EXPECT_EQ(*state.next_available_port(0, 1, 5, 2), 2u);
  state.set_ulink(0, 1, 2, false);
  EXPECT_EQ(*state.next_available_port(0, 1, 5, 2), 3u);
  EXPECT_FALSE(state.next_available_port(0, 1, 5, 4).has_value());
}

TEST(LinkState, NthAvailablePort) {
  const FatTree tree = make_ft34();
  LinkState state(tree);
  state.set_ulink(0, 1, 1, false);
  // Common free ports: 0, 2, 3.
  const LinkState::LevelView view = state.level_view(0);
  const LinkState::LevelView::Row row = view.and_row(1, 5);
  EXPECT_EQ(view.nth_set(row, 0), 0u);
  EXPECT_EQ(view.nth_set(row, 1), 2u);
  EXPECT_EQ(view.nth_set(row, 2), 3u);
  EXPECT_EQ(view.nth_set(row, 3), LinkState::kNoPort);
}

TEST(LinkState, LocalViewIgnoresDestination) {
  const FatTree tree = make_ft34();
  LinkState state(tree);
  state.set_dlink(0, 9, 0, false);  // destination port 0 occupied
  // Local view of source 2 still sees port 0 free: that is the baseline's
  // blindness the paper exploits.
  const LinkState::LevelView view = state.level_view(0);
  EXPECT_EQ(view.first_set(view.ulink_row(2)), 0u);
  EXPECT_EQ(view.popcount(view.ulink_row(2)), 4u);
  // But the global AND skips it.
  EXPECT_EQ(*state.first_available_port(0, 2, 9), 1u);
}

TEST(LinkState, NthLocalUlink) {
  const FatTree tree = make_ft34();
  LinkState state(tree);
  state.set_ulink(0, 2, 0, false);
  state.set_ulink(0, 2, 2, false);
  const LinkState::LevelView view = state.level_view(0);
  EXPECT_EQ(view.nth_set(view.ulink_row(2), 0), 1u);
  EXPECT_EQ(view.nth_set(view.ulink_row(2), 1), 3u);
  EXPECT_EQ(view.nth_set(view.ulink_row(2), 2), LinkState::kNoPort);
}

TEST(LinkState, ResetRestoresEverything) {
  const FatTree tree = make_ft34();
  LinkState state(tree);
  state.occupy(0, 0, 1, 0);
  state.occupy(1, 2, 3, 1);
  state.reset();
  EXPECT_EQ(state.total_occupied(), 0u);
  EXPECT_TRUE(state.audit().ok());
  EXPECT_TRUE(state.ulink(0, 0, 0));
  EXPECT_TRUE(state.dlink(1, 3, 1));
}

TEST(LinkState, PathOccupyRelease) {
  const FatTree tree = make_ft34();
  LinkState state(tree);
  const Path path{0, 63, 2, DigitVec{1, 2}};
  ASSERT_TRUE(state.path_available(tree, path));
  state.occupy_path(tree, path);
  EXPECT_FALSE(state.path_available(tree, path));
  EXPECT_EQ(state.total_occupied(), 4u);  // 2 levels × (one ulink + one dlink)
  state.release_path(tree, path);
  EXPECT_TRUE(state.path_available(tree, path));
  EXPECT_EQ(state.total_occupied(), 0u);
}

TEST(LinkState, WideRowsSpanMultipleWords) {
  // w = 64 exercises exactly one full word; w = 48 a partial word. Both
  // appear in the paper's two-level sweep.
  for (std::uint32_t w : {48u, 64u}) {
    const FatTree tree = FatTree::symmetric(2, w);
    LinkState state(tree);
    EXPECT_EQ(state.ports_per_switch(), w);
    EXPECT_EQ(*state.first_available_port(0, 0, 1), 0u);
    for (std::uint32_t p = 0; p + 1 < w; ++p) state.set_ulink(0, 0, p, false);
    EXPECT_EQ(*state.first_available_port(0, 0, 1), w - 1);
    const LinkState::LevelView view = state.level_view(0);
    EXPECT_EQ(view.popcount(view.and_row(0, 1)), 1u);
    EXPECT_TRUE(state.audit().ok());
  }
}

TEST(LinkState, RowWalkMatchesNextSetAcrossWordBoundaries) {
  // find_set peels a row's set bits word by word. At widths just under, at,
  // over and twice a 64-bit word, with ports on both sides of each word
  // boundary sometimes free and sometimes busy, every walk must visit the
  // ports next_set steps through, in the same order, and nth_set, popcount
  // and an early-stopping walk must agree with them.
  for (std::uint32_t w : {63u, 64u, 65u, 128u}) {
    const FatTree tree = FatTree::symmetric(2, w);
    LinkState state(tree);
    Xoshiro256ss rng(w);
    for (std::uint32_t trial = 0; trial < 16; ++trial) {
      for (std::uint32_t p = 0; p < w; ++p) {
        state.set_ulink(0, 0, p, rng.below(3) != 0);
        state.set_dlink(0, 1, p, rng.below(3) != 0);
      }
      for (std::uint32_t p : {0u, 62u, 63u, 64u, 65u, 126u, 127u}) {
        if (p >= w) continue;
        const bool free = (trial + p) % 2 == 0;
        state.set_ulink(0, 0, p, free);
        state.set_dlink(0, 1, p, free);
      }
      const LinkState::LevelView view = state.level_view(0);
      for (const LinkState::LevelView::Row row :
           {view.and_row(0, 1), view.ulink_row(0)}) {
        std::vector<std::uint32_t> stepped;
        for (std::uint32_t p = view.first_set(row); p != LinkState::kNoPort;
             p = view.next_set(row, p + 1)) {
          stepped.push_back(p);
        }
        std::vector<std::uint32_t> walked;
        EXPECT_EQ(view.find_set(row,
                                [&walked](std::uint32_t p) {
                                  walked.push_back(p);
                                  return false;
                                }),
                  LinkState::kNoPort);
        ASSERT_EQ(walked, stepped) << "w=" << w << " trial=" << trial;
        EXPECT_EQ(view.popcount(row), stepped.size());
        for (std::uint32_t i = 0; i < stepped.size(); ++i) {
          EXPECT_EQ(view.nth_set(row, i), stepped[i]);
        }
        EXPECT_EQ(view.nth_set(row, static_cast<std::uint32_t>(stepped.size())),
                  LinkState::kNoPort);
        for (std::uint32_t from : {0u, 1u, 63u, 64u, 65u, w - 1}) {
          EXPECT_EQ(view.find_set(row,
                                  [from](std::uint32_t p) { return p >= from; }),
                    view.next_set(row, from))
              << "w=" << w << " from=" << from;
        }
      }
    }
  }
}

TEST(LinkState, EqualityDetectsDifferences) {
  const FatTree tree = make_ft34();
  LinkState a(tree);
  LinkState b(tree);
  EXPECT_TRUE(a == b);
  a.occupy(0, 0, 1, 0);
  EXPECT_FALSE(a == b);
  a.release(0, 0, 1, 0);
  EXPECT_TRUE(a == b);
}

TEST(LinkState, SingleLevelTreeHasNoLinkLevels) {
  const FatTree tree = FatTree::symmetric(1, 4);
  LinkState state(tree);
  EXPECT_EQ(state.link_levels(), 0u);
  EXPECT_EQ(state.total_occupied(), 0u);
  EXPECT_TRUE(state.audit().ok());
}

TEST(LinkState, ColumnCountersTrackOccupyReleaseFailRepair) {
  // The balanced policies' weights are the per-column free counters; every
  // effective-availability flip — occupy, release, fail, repair, reset —
  // must move them in lock-step with the bitmaps (audit re-derives them).
  const FatTree tree = make_ft34();
  LinkState state(tree);
  const std::uint64_t rows = state.rows_at(0);
  EXPECT_EQ(state.column_free_ulinks(0, 1), rows);
  EXPECT_EQ(state.column_free_dlinks(0, 1), rows);

  state.occupy(0, 2, 9, 1);
  EXPECT_EQ(state.column_free_ulinks(0, 1), rows - 1);
  EXPECT_EQ(state.column_free_dlinks(0, 1), rows - 1);
  EXPECT_EQ(state.column_free_ulinks(0, 0), rows);  // other columns untouched
  EXPECT_TRUE(state.audit().ok());

  state.release(0, 2, 9, 1);
  EXPECT_EQ(state.column_free_ulinks(0, 1), rows);
  EXPECT_EQ(state.column_free_dlinks(0, 1), rows);

  state.fail_cable(0, 3, 2);
  EXPECT_EQ(state.column_free_ulinks(0, 2), rows - 1);
  EXPECT_EQ(state.column_free_dlinks(0, 2), rows - 1);
  EXPECT_TRUE(state.audit().ok());
  state.repair_cable(0, 3, 2);
  EXPECT_EQ(state.column_free_ulinks(0, 2), rows);
  EXPECT_EQ(state.column_free_dlinks(0, 2), rows);

  state.occupy(0, 0, 1, 3);
  state.fail_cable(1, 5, 0);
  state.reset();
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_EQ(state.column_free_ulinks(0, p), rows);
    EXPECT_EQ(state.column_free_dlinks(0, p), rows);
    EXPECT_EQ(state.column_free_ulinks(1, p), state.rows_at(1));
  }
  EXPECT_TRUE(state.audit().ok());
}

TEST(LinkState, ColumnCountersSurviveFailWhileOccupied) {
  // Fail a cable whose up-channel is held by a circuit: only the free down
  // side flips to busy. The holder's release parks in the shadow (counter
  // unchanged), and repair restores exactly the unheld channels.
  const FatTree tree = make_ft34();
  LinkState state(tree);
  const std::uint64_t rows = state.rows_at(0);
  state.occupy(0, 2, 9, 1);  // u(0,2,1) and d(0,9,1) busy
  state.fail_cable(0, 2, 1);
  EXPECT_EQ(state.column_free_ulinks(0, 1), rows - 1);  // already busy
  EXPECT_EQ(state.column_free_dlinks(0, 1), rows - 2);  // fault took d(0,2,1)
  EXPECT_TRUE(state.audit().ok());

  state.release(0, 2, 9, 1);
  // d(0,9,1) really frees; the faulted u(0,2,1) release parks in the shadow
  // and the effective counter must NOT move for it.
  EXPECT_EQ(state.column_free_ulinks(0, 1), rows - 1);
  EXPECT_EQ(state.column_free_dlinks(0, 1), rows - 1);
  EXPECT_TRUE(state.audit().ok());

  state.repair_cable(0, 2, 1);
  EXPECT_EQ(state.column_free_ulinks(0, 1), rows);
  EXPECT_EQ(state.column_free_dlinks(0, 1), rows);
  EXPECT_TRUE(state.audit().ok());
}

// The balanced policies live in the one port picker (core/port_picker.hpp)
// and weigh each port of the AND row by its column's free channels, up and
// down; these pin its tie-breaks on the column counters kept here.

/// `policy`'s pick on the level-0 AND row of (src_sw, dst_sw), starting
/// from round-robin hint `from`.
std::uint32_t balanced_pick(const LinkState& state, PortPolicy policy,
                            std::uint64_t src_sw, std::uint64_t dst_sw,
                            std::uint32_t from = 0) {
  const LinkState::LevelView view = state.level_view(0);
  std::vector<std::uint32_t> hint(state.rows_at(0), 0);
  hint[src_sw] = from;
  Xoshiro256ss rng(1);
  return pick_port(policy, view, view.and_row(src_sw, dst_sw), hint, rng,
                   nullptr);
}

std::uint32_t balanced_port(const LinkState& state, std::uint64_t src_sw,
                            std::uint64_t dst_sw) {
  return balanced_pick(state, PortPolicy::kBalanced, src_sw, dst_sw);
}

/// Size of the max-weight tie set the randomized policy draws from.
std::uint32_t balanced_port_count(const LinkState& state,
                                  std::uint64_t src_sw, std::uint64_t dst_sw) {
  const LinkState::LevelView view = state.level_view(0);
  return port_picker::max_weight(view, view.and_row(src_sw, dst_sw)).count;
}

/// The `index`-th max-weight port, ascending.
std::uint32_t nth_balanced_port(const LinkState& state, std::uint64_t src_sw,
                                std::uint64_t dst_sw, std::uint32_t index) {
  const LinkState::LevelView view = state.level_view(0);
  const LinkState::LevelView::Row row = view.and_row(src_sw, dst_sw);
  return port_picker::nth_tie(view, row,
                              port_picker::max_weight(view, row).weight, index);
}

TEST(LinkState, BalancedPortPicksFullestColumnLowestTie) {
  const FatTree tree = make_ft34();
  LinkState state(tree);
  // Deplete column 0 on six switches: weight(0) = 2·10, weights 1..3 = 2·16.
  for (std::uint64_t sw = 0; sw < 6; ++sw) state.occupy(0, sw, sw, 0);
  // Rows 10/11 are fully free, so the AND covers all ports: the pick must
  // skip the depleted column and tie-break to the lowest max-weight port.
  EXPECT_EQ(balanced_port(state, 10, 11), 1u);
  EXPECT_EQ(balanced_port_count(state, 10, 11), 3u);
  EXPECT_EQ(nth_balanced_port(state, 10, 11, 0), 1u);
  EXPECT_EQ(nth_balanced_port(state, 10, 11, 1), 2u);
  EXPECT_EQ(nth_balanced_port(state, 10, 11, 2), 3u);
  EXPECT_EQ(nth_balanced_port(state, 10, 11, 3), LinkState::kNoPort);

  // The round-robin variant starts the tie scan at its hint and wraps.
  const PortPolicy rr = PortPolicy::kBalancedRR;
  EXPECT_EQ(balanced_pick(state, rr, 10, 11, 0), 1u);
  EXPECT_EQ(balanced_pick(state, rr, 10, 11, 2), 2u);
  EXPECT_EQ(balanced_pick(state, rr, 10, 11, 3), 3u);
}

TEST(LinkState, BalancedPortIsArgmaxOverAvailableOnly) {
  const FatTree tree = make_ft34();
  LinkState state(tree);
  // Distinct depletion per column: 0 → -6, 1 → -3, 2 → -1, 3 → 0.
  for (std::uint64_t sw = 0; sw < 6; ++sw) state.occupy(0, sw, sw, 0);
  for (std::uint64_t sw = 6; sw < 9; ++sw) state.occupy(0, sw, sw, 1);
  state.occupy(0, 9, 9, 2);
  EXPECT_EQ(balanced_port(state, 10, 11), 3u);
  EXPECT_EQ(balanced_port_count(state, 10, 11), 1u);
  // Mask the heaviest column out of the AND row: the argmax re-runs over
  // what is actually available, it does not fall back to first-free.
  state.set_ulink(0, 10, 3, false);
  EXPECT_EQ(balanced_port(state, 10, 11), 2u);
  state.set_dlink(0, 11, 2, false);
  EXPECT_EQ(balanced_port(state, 10, 11), 1u);
  // Empty AND row → kNoPort, count 0.
  state.set_ulink(0, 10, 0, false);
  state.set_ulink(0, 10, 1, false);
  EXPECT_EQ(balanced_port(state, 10, 11), LinkState::kNoPort);
  EXPECT_EQ(balanced_port_count(state, 10, 11), 0u);
}

TEST(LinkState, BalancedPickSteersAwayFromFaultedColumns) {
  // A faulted cable both removes its column capacity from the weights and
  // reads busy in the AND row — the balanced pick therefore drains load
  // away from damaged planes with no fault-specific branch.
  const FatTree tree = make_ft34();
  LinkState state(tree);
  for (std::uint64_t sw = 0; sw < 5; ++sw) state.fail_cable(0, sw, 0);
  EXPECT_EQ(balanced_port(state, 10, 11), 1u);
  // The faulted column is still pickable when it is all that remains.
  state.set_ulink(0, 10, 1, false);
  state.set_ulink(0, 10, 2, false);
  state.set_ulink(0, 10, 3, false);
  EXPECT_EQ(balanced_port(state, 10, 11), 0u);
}

TEST(LinkStateDeath, DoubleOccupyRejected) {
  const FatTree tree = make_ft34();
  LinkState state(tree);
  state.occupy(0, 0, 1, 0);
  EXPECT_DEATH(state.occupy(0, 0, 1, 0), "precondition");
}

TEST(LinkStateDeath, ReleaseFreeChannelRejected) {
  const FatTree tree = make_ft34();
  LinkState state(tree);
  EXPECT_DEATH(state.release(0, 0, 1, 0), "precondition");
}

}  // namespace
}  // namespace ftsched
