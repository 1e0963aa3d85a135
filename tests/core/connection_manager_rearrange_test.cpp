// ConnectionManager::open(request, max_moves): admission with bounded circuit
// re-routing. The scenarios below were written for the default budget of
// four moves per admission.
#include <gtest/gtest.h>

#include "core/connection_manager.hpp"
#include "topology/path.hpp"

namespace ftsched {
namespace {

constexpr std::uint32_t kMoves = 4;

TEST(Rearranging, PlainOpensWorkLikeBaseManager) {
  const FatTree tree = FatTree::symmetric(3, 4);
  ConnectionManager manager(tree);
  const auto id = manager.open(Request{0, 63}, kMoves);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(manager.stats().rearranged_grants, 0u);  // a direct grant
  EXPECT_EQ(manager.stats().moves, 0u);
  const Path* path = manager.find(*id);
  ASSERT_NE(path, nullptr);
  EXPECT_TRUE(check_path_legal(tree, *path).ok());
  EXPECT_TRUE(manager.close(*id).ok());
  EXPECT_EQ(manager.state().total_occupied(), 0u);
}

// Deterministic scenario on FT(2,4) where the new request's AND row is
// empty but one move admits it. Leaves: 0 = PEs 0..3, 1 = 4..7, 2 = 8..11,
// 3 = 12..15. First-fit picks the lowest common port, so the construction
// below yields exactly these placements:
//   a : 0 -> 8   U(0,0,0) D(0,2,0)
//   b : 1 -> 9   U(0,0,1) D(0,2,1)
//   f1: 14 -> 2  U(0,3,0) D(0,0,0)
//   f2: 15 -> 3  U(0,3,1) D(0,0,1)
//   c : 12 -> 4  U(0,3,2) D(0,1,2)   (ports 0,1 of U(0,3) already taken)
//   d : 13 -> 5  U(0,3,3) D(0,1,3)
// Then request 2 -> 6 (leaf0 -> leaf1) finds Ulink(0,0) free on {2,3} and
// Dlink(0,1) free on {0,1}: the AND is empty, but moving `a` (or `b`) off
// its up-port — it can re-home through port 2 or 3 — frees a common port.
TEST(Rearranging, MovesCircuitOffContendedChannel) {
  const FatTree tree = FatTree::symmetric(2, 4);
  ConnectionManager manager(tree);

  const auto a = manager.open(Request{0, 8}, kMoves);
  const auto b = manager.open(Request{1, 9}, kMoves);
  const auto f1 = manager.open(Request{14, 2}, kMoves);
  const auto f2 = manager.open(Request{15, 3}, kMoves);
  const auto c = manager.open(Request{12, 4}, kMoves);
  const auto d = manager.open(Request{13, 5}, kMoves);
  ASSERT_TRUE(a && b && f1 && f2 && c && d);
  ASSERT_EQ(manager.stats().moves, 0u);
  ASSERT_EQ(manager.find(*a)->ports[0], 0u);
  ASSERT_EQ(manager.find(*b)->ports[0], 1u);
  ASSERT_EQ(manager.find(*c)->ports[0], 2u);
  ASSERT_EQ(manager.find(*d)->ports[0], 3u);

  // The blocked request: admitted only through a rearrangement.
  const auto blocked = manager.open(Request{2, 6}, kMoves);
  ASSERT_TRUE(blocked.has_value());
  EXPECT_EQ(manager.stats().moves, 1u);
  EXPECT_EQ(manager.stats().rearranged_grants, 1u);
  // Seven grants, one of them rearranged: six direct.
  EXPECT_EQ(manager.active_count() - manager.stats().rearranged_grants, 6u);

  // Every circuit, including the moved one, is still legal and the state is
  // internally consistent.
  EXPECT_TRUE(manager.state().audit().ok());
  for (const auto id : {*a, *b, *f1, *f2, *c, *d, *blocked}) {
    const Path* path = manager.find(id);
    ASSERT_NE(path, nullptr);
    EXPECT_TRUE(check_path_legal(tree, *path).ok());
  }
  // 7 circuits × (1 up + 1 down channel each at level 0).
  EXPECT_EQ(manager.state().total_occupied(), 14u);
}

// Same scenario with a zero move budget: the request must simply fail and
// leave the fabric untouched.
TEST(Rearranging, ZeroBudgetRejectsBlockedRequest) {
  const FatTree tree = FatTree::symmetric(2, 4);
  ConnectionManager manager(tree);
  ASSERT_TRUE(manager.open(Request{0, 8}, 0).has_value());
  ASSERT_TRUE(manager.open(Request{1, 9}, 0).has_value());
  ASSERT_TRUE(manager.open(Request{14, 2}, 0).has_value());
  ASSERT_TRUE(manager.open(Request{15, 3}, 0).has_value());
  ASSERT_TRUE(manager.open(Request{12, 4}, 0).has_value());
  ASSERT_TRUE(manager.open(Request{13, 5}, 0).has_value());
  const std::uint64_t occupied = manager.state().total_occupied();
  std::uint64_t rejections = 0;
  rejections += !manager.open(Request{2, 6}, 0).has_value();
  EXPECT_EQ(rejections, 1u);
  EXPECT_EQ(manager.stats().moves, 0u);
  EXPECT_EQ(manager.state().total_occupied(), occupied);
  // The failed request's endpoints are reusable.
  rejections += !manager.open(Request{2, 6}, 0).has_value();  // still blocked
  EXPECT_EQ(rejections, 2u);
}

TEST(Rearranging, LeafBusyIsNotRearrangeable) {
  const FatTree tree = FatTree::symmetric(2, 4);
  ConnectionManager manager(tree);
  ASSERT_TRUE(manager.open(Request{0, 8}, kMoves).has_value());
  // Destination PE 8 already receives a circuit; no amount of moving helps.
  EXPECT_FALSE(manager.open(Request{1, 8}, kMoves).has_value());
  EXPECT_EQ(manager.stats().moves, 0u);
}

TEST(Rearranging, AdmitsAtLeastAsManyAsPlainManagerUnderChurn) {
  const FatTree tree = FatTree::symmetric(3, 4);
  ConnectionManager plain(tree);
  ConnectionManager rearranging(tree);
  Xoshiro256ss rng(9);
  std::vector<ConnectionId> plain_ids;
  std::vector<ConnectionId> re_ids;
  std::uint64_t plain_grants = 0;
  std::uint64_t re_grants = 0;
  for (int step = 0; step < 3000; ++step) {
    const bool arrive = plain_ids.empty() || re_ids.empty() ||
                        rng.below(4) != 0;
    const Request r{rng.below(tree.node_count()), rng.below(tree.node_count())};
    const std::uint64_t victim = rng();
    if (arrive) {
      if (const auto id = plain.open(r)) {
        plain_ids.push_back(*id);
        ++plain_grants;
      }
      if (const auto id = rearranging.open(r, kMoves)) {
        re_ids.push_back(*id);
        ++re_grants;
      }
    } else {
      if (!plain_ids.empty()) {
        const std::size_t pick = victim % plain_ids.size();
        ASSERT_TRUE(plain.close(plain_ids[pick]).ok());
        plain_ids.erase(plain_ids.begin() +
                        static_cast<std::ptrdiff_t>(pick));
      }
      if (!re_ids.empty()) {
        const std::size_t pick = victim % re_ids.size();
        ASSERT_TRUE(rearranging.close(re_ids[pick]).ok());
        re_ids.erase(re_ids.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    ASSERT_TRUE(rearranging.state().audit().ok());
  }
  EXPECT_GE(re_grants, plain_grants);
  EXPECT_GT(rearranging.stats().rearranged_grants, 0u);
}

TEST(Rearranging, MovedCircuitsRemainFindable) {
  const FatTree tree = FatTree::symmetric(2, 4);
  ConnectionManager manager(tree);
  const auto a = manager.open(Request{0, 8}, kMoves);
  ASSERT_TRUE(manager.open(Request{1, 9}, kMoves).has_value());
  ASSERT_TRUE(manager.open(Request{14, 2}, kMoves).has_value());
  ASSERT_TRUE(manager.open(Request{15, 3}, kMoves).has_value());
  ASSERT_TRUE(manager.open(Request{12, 4}, kMoves).has_value());
  ASSERT_TRUE(manager.open(Request{13, 5}, kMoves).has_value());
  ASSERT_TRUE(manager.open(Request{2, 6}, kMoves).has_value());  // a move
  ASSERT_GT(manager.stats().moves, 0u);
  // Whichever circuit moved, id `a` still resolves and can be closed.
  const Path* path = manager.find(*a);
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(path->src, 0u);
  EXPECT_EQ(path->dst, 8u);
  EXPECT_TRUE(manager.close(*a).ok());
}

TEST(Rearranging, CloseUnknownIdFails) {
  const FatTree tree = FatTree::symmetric(2, 4);
  ConnectionManager manager(tree);
  EXPECT_FALSE(manager.close(99).ok());
}

TEST(Rearranging, ClearResets) {
  const FatTree tree = FatTree::symmetric(3, 4);
  ConnectionManager manager(tree);
  ASSERT_TRUE(manager.open(Request{0, 63}, kMoves).has_value());
  manager.clear();
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_EQ(manager.state().total_occupied(), 0u);
  EXPECT_TRUE(manager.open(Request{0, 63}, kMoves).has_value());
}

}  // namespace
}  // namespace ftsched
