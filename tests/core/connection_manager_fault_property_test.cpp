// ConnectionManager::fail_cable reads its victims from the channel owner
// index. This differential property test drives seeded random interleavings
// of open (with a move budget of 0..4) / open_batch / close / fail / repair
// and checks every fail_cable against the brute-force answer: a
// path_crosses_cable scan over find() of every open circuit, in ascending id
// order. The interleavings cover the index's whole life: the first fail or
// rearranging open builds it, then opens, moves, batches, closes, clears and
// revocations keep it current, and every later fail reads it after some of
// those updates.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/connection_manager.hpp"
#include "core/registry.hpp"
#include "topology/path.hpp"
#include "util/rng.hpp"

namespace ftsched {
namespace {

struct Shape {
  const char* name;
  FatTreeParams params;
};

const Shape kShapes[] = {
    {"FT(3,4)", FatTreeParams::symmetric(3, 4)},
    {"slimmed FT(3,6,5)", FatTreeParams{3, 6, 5}},
    {"FT(2,63)", FatTreeParams::symmetric(2, 63)},
    {"FT(2,64)", FatTreeParams::symmetric(2, 64)},
    {"FT(2,65)", FatTreeParams::symmetric(2, 65)},
};

const char* const kBatchSchedulers[] = {"levelwise", "levelwise-random",
                                        "levelwise-balanced"};

/// What fail_cable must return: every open circuit crossing `cable`, by a
/// scan in ascending id order.
std::vector<Revocation> scan_victims(const FatTree& tree,
                                     const ConnectionManager& manager,
                                     const std::set<ConnectionId>& open,
                                     const CableId& cable) {
  std::vector<Revocation> victims;
  for (const ConnectionId id : open) {
    const Path* path = manager.find(id);
    if (path_crosses_cable(tree, *path, cable)) {
      victims.push_back(Revocation{id, Request{path->src, path->dst}});
    }
  }
  return victims;
}

class Interleaving {
 public:
  Interleaving(const FatTree& tree, std::uint64_t seed)
      : tree_(tree),
        manager_(tree),
        scheduler_(make_scheduler(kBatchSchedulers[seed % 3], seed).value()),
        rng_(seed) {
    for (std::uint32_t h = 0; h + 1 < tree.levels(); ++h) {
      for (std::uint64_t sw = 0; sw < tree.switches_at(h); ++sw) {
        for (std::uint32_t p = 0; p < tree.parent_arity(); ++p) {
          cables_.push_back(CableId{h, sw, p});
        }
      }
    }
  }

  void step() {
    const std::uint64_t op = rng_.below(100);
    if (op < 20) {
      open_one();
    } else if (op < 35) {
      open_batch();
    } else if (op < 55) {
      close_one();
    } else if (op < 90) {
      fail_one();
    } else if (op < 99) {
      repair_one();
    } else {
      clear();
    }
    const Status owners = manager_.audit_owners();
    ASSERT_TRUE(owners.ok()) << owners.message();
    ASSERT_EQ(manager_.active_count(), open_.size());
  }

  std::uint64_t victims() const { return victims_; }
  std::uint64_t multi_victim_fails() const { return multi_victim_fails_; }
  std::uint64_t fails_after_updates() const { return fails_after_updates_; }
  const ConnectionManager& manager() const { return manager_; }

 private:
  Request random_request() {
    return Request{rng_.below(tree_.node_count()),
                   rng_.below(tree_.node_count())};
  }

  void open_one() {
    updated_ = true;
    const auto max_moves = static_cast<std::uint32_t>(rng_.below(5));
    if (const auto id = manager_.open(random_request(), max_moves)) {
      open_.insert(*id);
    }
  }

  void open_batch() {
    updated_ = true;
    std::vector<Request> batch(1 + rng_.below(tree_.node_count() / 4));
    for (Request& r : batch) r = random_request();
    const BatchOpenResult result = manager_.open_batch(batch, *scheduler_);
    for (const auto& id : result.ids) {
      if (id) open_.insert(*id);
    }
  }

  void close_one() {
    if (open_.empty()) return;
    updated_ = true;
    auto it = open_.begin();
    std::advance(it, rng_.below(open_.size()));
    ASSERT_TRUE(manager_.close(*it).ok());
    open_.erase(it);
  }

  void fail_one() {
    // Half the failures hit a channel some open circuit holds, so victims
    // (and cables with two victims) are common, not luck.
    CableId cable = cables_[rng_.below(cables_.size())];
    if (!open_.empty() && rng_.below(2) == 0) {
      auto it = open_.begin();
      std::advance(it, rng_.below(open_.size()));
      ChannelBuffer channels;
      const std::size_t n =
          expand_channels(tree_, *manager_.find(*it), channels);
      if (n > 0) cable = channels[rng_.below(n)].cable;
    }
    if (failed_.count(cable) != 0) return;
    const std::vector<Revocation> expected =
        scan_victims(tree_, manager_, open_, cable);
    if (built_ && updated_) ++fails_after_updates_;
    const std::vector<Revocation> victims = manager_.fail_cable(cable);
    built_ = true;
    updated_ = false;
    failed_.insert(cable);
    ASSERT_EQ(victims.size(), expected.size()) << to_string(cable);
    for (std::size_t i = 0; i < victims.size(); ++i) {
      EXPECT_EQ(victims[i].id, expected[i].id) << to_string(cable);
      EXPECT_EQ(victims[i].request, expected[i].request) << to_string(cable);
      EXPECT_EQ(manager_.find(victims[i].id), nullptr);
      open_.erase(victims[i].id);
    }
    victims_ += victims.size();
    if (victims.size() > 1) ++multi_victim_fails_;
  }

  void repair_one() {
    if (failed_.empty()) return;
    auto it = failed_.begin();
    std::advance(it, rng_.below(failed_.size()));
    manager_.repair_cable(*it);
    failed_.erase(it);
  }

  // Mass teardown; it may also lift faults, so the failed set is re-read.
  void clear() {
    updated_ = true;
    manager_.clear();
    open_.clear();
    for (auto it = failed_.begin(); it != failed_.end();) {
      it = manager_.state().cable_faulted(it->level, it->lower_index, it->port)
               ? std::next(it)
               : failed_.erase(it);
    }
  }

  const FatTree& tree_;
  ConnectionManager manager_;
  std::unique_ptr<Scheduler> scheduler_;
  Xoshiro256ss rng_;
  std::vector<CableId> cables_;
  std::set<ConnectionId> open_;
  std::set<CableId> failed_;
  bool built_ = false;    // a fail_cable has built the owner index
  bool updated_ = false;  // circuits changed since the last fail_cable
  std::uint64_t victims_ = 0;
  std::uint64_t multi_victim_fails_ = 0;
  std::uint64_t fails_after_updates_ = 0;
};

TEST(ConnectionManagerFault, OwnerIndexVictimsMatchCrossingScan) {
  for (const Shape& shape : kShapes) {
    const FatTree tree = FatTree::create(shape.params).value();
    std::uint64_t victims = 0;
    std::uint64_t multi = 0;
    std::uint64_t after_updates = 0;
    std::uint64_t moves = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(std::string(shape.name) + " seed " + std::to_string(seed));
      Interleaving run(tree, seed);
      for (int i = 0; i < 400; ++i) {
        run.step();
        if (testing::Test::HasFatalFailure()) return;
      }
      EXPECT_TRUE(run.manager().state().audit().ok());
      victims += run.victims();
      multi += run.multi_victim_fails();
      after_updates += run.fails_after_updates();
      moves += run.manager().stats().moves;
    }
    // The interleavings must actually exercise the index: victims, cables
    // with both channels held, fails read after open/close updates, and
    // moved circuits.
    EXPECT_GT(victims, 100u) << shape.name;
    EXPECT_GT(multi, 5u) << shape.name;
    EXPECT_GT(after_updates, 20u) << shape.name;
    // Only the small shapes fill up enough to block a request.
    if (tree.node_count() <= 256) {
      EXPECT_GT(moves, 5u) << shape.name;
    }
  }
}

}  // namespace
}  // namespace ftsched
