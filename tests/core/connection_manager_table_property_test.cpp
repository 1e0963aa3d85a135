// ConnectionManager keeps its open circuits in a flat table: stable slots
// plus an open-addressed id index (home bucket id & mask, linear probing,
// backward-shift deletion). This differential property test drives seeded
// random interleavings of open (with a move budget of 0..4) / open_batch
// (tracked and untracked) / close / clear / fail_cable / repair_cable and
// checks the table against a std::map reference model after every
// operation: the open count, consecutive ids, find() of every id ever issued
// (its Path while open, null once closed), the owner index audit, the
// CLOSED/REVOKED flight events of tracked circuits, and that a find()
// pointer neither moves nor changes while other circuits open and close. A
// circuit a rearranging open moves keeps its id, endpoints, flight id and
// find() pointer; the model takes its new ports from find(). FT(2,4) has 16 PEs and so a 32-bucket index:
// live ids share home buckets and probe runs wrap past the table's end.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/connection_manager.hpp"
#include "core/registry.hpp"
#include "obs/flight_recorder.hpp"
#include "topology/path.hpp"
#include "util/rng.hpp"

namespace ftsched {
namespace {

struct Shape {
  const char* name;
  FatTreeParams params;
};

const Shape kShapes[] = {
    {"FT(2,4)", FatTreeParams::symmetric(2, 4)},
    {"FT(3,4)", FatTreeParams::symmetric(3, 4)},
    {"slimmed FT(3,6,5)", FatTreeParams{3, 6, 5}},
};

const char* const kBatchSchedulers[] = {"levelwise", "levelwise-random",
                                        "levelwise-balanced"};

/// Buckets of the id index: the smallest power of two >= 2·node_count.
std::uint64_t index_buckets(const FatTree& tree) {
  std::uint64_t buckets = 1;
  while (buckets < 2 * tree.node_count()) buckets *= 2;
  return buckets;
}

class Interleaving {
 public:
  Interleaving(const FatTree& tree, std::uint64_t seed)
      : tree_(tree),
        manager_(tree),
        scheduler_(make_scheduler(kBatchSchedulers[seed % 3], seed).value()),
        rng_(seed),
        ring_(1 << 12),
        mask_(index_buckets(tree) - 1) {
    manager_.set_flight(&ring_);
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
    if (op < 25) {
      open_one();
    } else if (op < 35) {
      open_batch(/*tracked=*/false);
    } else if (op < 45) {
      open_batch(/*tracked=*/true);
    } else if (op < 67) {
      close_one();
    } else if (op < 70) {
      close_unknown();
    } else if (op < 82) {
      fail_one();
    } else if (op < 99) {
      repair_one();
    } else {
      clear();
    }
    check();
  }

  std::uint64_t shared_homes() const { return shared_homes_; }
  std::uint64_t wrapped_runs() const { return wrapped_runs_; }
  std::uint64_t pin_survivals() const { return pin_survivals_; }
  std::uint64_t tracked_closes() const { return tracked_closes_; }
  std::uint64_t tracked_revocations() const { return tracked_revocations_; }
  std::uint64_t moved_circuits() const { return moved_circuits_; }
  const ConnectionManager& manager() const { return manager_; }

 private:
  // Mostly between endpoints no open circuit holds, so the fabric fills up
  // and circuits live long; sometimes anywhere, so leaf-busy rejections
  // stay common too.
  Request random_request() {
    const std::uint64_t n = tree_.node_count();
    if (rng_.below(4) == 0) return Request{rng_.below(n), rng_.below(n)};
    std::vector<bool> src_busy(n, false);
    std::vector<bool> dst_busy(n, false);
    for (const auto& [id, flight] : open_) {
      src_busy[issued_[id - 1].src] = true;
      dst_busy[issued_[id - 1].dst] = true;
    }
    const auto pick_free = [&](const std::vector<bool>& busy) {
      std::vector<NodeId> free;
      for (NodeId v = 0; v < n; ++v) {
        if (!busy[v]) free.push_back(v);
      }
      return free.empty() ? rng_.below(n) : free[rng_.below(free.size())];
    };
    const NodeId src = pick_free(src_busy);
    return Request{src, pick_free(dst_busy)};
  }

  // Every grant takes the next id, and find() returns the granted path.
  void record_grant(ConnectionId id, const Path& path,
                    std::optional<std::uint64_t> flight) {
    ASSERT_EQ(id, issued_.size() + 1) << "ids must be issued consecutively";
    issued_.push_back(path);
    open_.emplace(id, flight);
  }

  void open_one() {
    const Request request = random_request();
    const auto max_moves = static_cast<std::uint32_t>(rng_.below(5));
    const std::uint64_t moves = manager_.stats().moves;
    const std::uint64_t events = ring_.total();
    const auto id = manager_.open(request, max_moves);
    EXPECT_EQ(ring_.total(), events);  // opens and moves write no events
    ASSERT_LE(manager_.stats().moves, moves + max_moves);
    // Moved circuits: same endpoints and level, new legal ports.
    std::uint64_t moved = 0;
    for (const auto& [open_id, flight] : open_) {
      const Path* path = manager_.find(open_id);
      ASSERT_NE(path, nullptr) << "open id " << open_id;
      Path& model = issued_[open_id - 1];
      if (*path == model) continue;
      ASSERT_EQ(path->src, model.src);
      ASSERT_EQ(path->dst, model.dst);
      ASSERT_EQ(path->ancestor_level, model.ancestor_level);
      ASSERT_TRUE(check_path_legal(tree_, *path).ok());
      model = *path;
      ++moved;
    }
    ASSERT_LE(moved, manager_.stats().moves - moves);
    moved_circuits_ += moved;
    if (id) {
      const Path* path = manager_.find(*id);
      ASSERT_NE(path, nullptr);
      EXPECT_EQ(path->src, request.src);
      EXPECT_EQ(path->dst, request.dst);
      record_grant(*id, *path, std::nullopt);
    }
  }

  void open_batch(bool tracked) {
    std::vector<Request> batch(1 + rng_.below(tree_.node_count() / 4));
    std::vector<std::uint64_t> flight_ids;
    for (Request& r : batch) {
      r = random_request();
      flight_ids.push_back(next_flight_++);
    }
    const BatchOpenResult result = manager_.open_batch(
        batch, *scheduler_,
        tracked ? std::span<const std::uint64_t>(flight_ids)
                : std::span<const std::uint64_t>());
    ASSERT_EQ(result.ids.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const RequestOutcome& outcome = result.schedule.outcomes[i];
      ASSERT_EQ(result.ids[i].has_value(), outcome.granted);
      if (!outcome.granted) continue;
      record_grant(*result.ids[i], outcome.path,
                   tracked ? std::optional<std::uint64_t>(flight_ids[i])
                           : std::nullopt);
    }
  }

  // Most closes take the newest circuit, so old ones live long enough to
  // share a home bucket with ids issued a table's length later.
  void close_one() {
    if (open_.empty()) return;
    auto it = std::prev(open_.end());
    if (rng_.below(4) == 0) {
      it = open_.begin();
      std::advance(it, rng_.below(open_.size()));
    }
    const std::uint64_t events = ring_.total();
    ASSERT_TRUE(manager_.close(it->first).ok());
    if (it->second) {
      ASSERT_EQ(ring_.total(), events + 1);
      const obs::FlightEvent last = ring_.snapshot().back();
      EXPECT_EQ(last.kind, obs::FlightEventKind::kClosed);
      EXPECT_EQ(last.req, *it->second);
      ++tracked_closes_;
    } else {
      EXPECT_EQ(ring_.total(), events);
    }
    open_.erase(it);
  }

  // Closing an id that was never issued, or is already closed, fails and
  // changes nothing.
  void close_unknown() {
    const ConnectionId id = rng_.below(issued_.size() + 2);
    if (open_.count(id) != 0) return;
    EXPECT_FALSE(manager_.close(id).ok()) << "id " << id;
  }

  void fail_one() {
    // Half the failures hit a channel some open circuit holds.
    CableId cable = cables_[rng_.below(cables_.size())];
    if (!open_.empty() && rng_.below(2) == 0) {
      auto it = open_.begin();
      std::advance(it, rng_.below(open_.size()));
      ChannelBuffer channels;
      const std::size_t n =
          expand_channels(tree_, issued_[it->first - 1], channels);
      if (n > 0) cable = channels[rng_.below(n)].cable;
    }
    if (failed_.count(cable) != 0) return;
    // The model's answer: every open circuit crossing the cable, by id.
    std::vector<ConnectionId> expected;
    for (const auto& [id, flight] : open_) {
      if (path_crosses_cable(tree_, issued_[id - 1], cable)) {
        expected.push_back(id);
      }
    }
    const std::uint64_t events = ring_.total();
    const std::vector<Revocation> victims = manager_.fail_cable(cable);
    failed_.insert(cable);
    ASSERT_EQ(victims.size(), expected.size()) << to_string(cable);
    std::vector<std::uint64_t> revoked;
    for (std::size_t i = 0; i < victims.size(); ++i) {
      ASSERT_EQ(victims[i].id, expected[i]) << to_string(cable);
      const Path& path = issued_[victims[i].id - 1];
      EXPECT_EQ(victims[i].request, (Request{path.src, path.dst}));
      const auto it = open_.find(victims[i].id);
      if (it->second) revoked.push_back(*it->second);
      open_.erase(it);
    }
    ASSERT_EQ(ring_.total(), events + revoked.size());
    const std::vector<obs::FlightEvent> snapshot = ring_.snapshot();
    for (std::size_t i = 0; i < revoked.size(); ++i) {
      const obs::FlightEvent& event =
          snapshot[snapshot.size() - revoked.size() + i];
      EXPECT_EQ(event.kind, obs::FlightEventKind::kRevoked);
      EXPECT_EQ(event.req, revoked[i]);
    }
    tracked_revocations_ += revoked.size();
  }

  void repair_one() {
    if (failed_.empty()) return;
    auto it = failed_.begin();
    std::advance(it, rng_.below(failed_.size()));
    manager_.repair_cable(*it);
    failed_.erase(it);
  }

  // Mass teardown: no lifecycle events, and it may also lift faults, so the
  // failed set is re-read.
  void clear() {
    const std::uint64_t events = ring_.total();
    manager_.clear();
    EXPECT_EQ(ring_.total(), events);
    open_.clear();
    for (auto it = failed_.begin(); it != failed_.end();) {
      it = manager_.state().cable_faulted(it->level, it->lower_index, it->port)
               ? std::next(it)
               : failed_.erase(it);
    }
  }

  void check() {
    ASSERT_EQ(manager_.active_count(), open_.size());
    EXPECT_EQ(manager_.find(0), nullptr);
    EXPECT_EQ(manager_.find(issued_.size() + 1), nullptr);
    for (ConnectionId id = 1; id <= issued_.size(); ++id) {
      const Path* path = manager_.find(id);
      if (open_.count(id) == 0) {
        ASSERT_EQ(path, nullptr) << "closed id " << id;
      } else {
        ASSERT_NE(path, nullptr) << "open id " << id;
        ASSERT_EQ(*path, issued_[id - 1]) << "id " << id;
      }
    }
    const Status owners = manager_.audit_owners();
    ASSERT_TRUE(owners.ok()) << owners.message();

    // A pinned find() pointer stays put while its circuit is open.
    if (pinned_ != 0 && open_.count(pinned_) != 0) {
      ASSERT_EQ(manager_.find(pinned_), pinned_path_);
      ASSERT_EQ(*pinned_path_, issued_[pinned_ - 1]);
      ++pin_survivals_;
    } else if (!open_.empty()) {
      auto it = open_.begin();
      std::advance(it, rng_.below(open_.size()));
      pinned_ = it->first;
      pinned_path_ = manager_.find(pinned_);
    }

    // Coverage of the index's hard cases, read off the model: a live id
    // whose home bucket another live id holds, and a live id sitting past
    // the table's end.
    // Whether linear probing puts some member past the end does not depend
    // on insertion order (the buckets from a cluster's start to the end
    // hold exactly the members homed there), so placing the live ids in id
    // order answers it for the real table.
    std::vector<bool> occupied(mask_ + 1, false);
    bool shared = false;
    bool wrapped = false;
    for (const auto& [id, flight] : open_) {
      const std::uint64_t home = id & mask_;
      shared |= occupied[home];
      std::uint64_t b = home;
      while (occupied[b]) b = (b + 1) & mask_;
      occupied[b] = true;
      wrapped |= b < home;
    }
    shared_homes_ += shared;
    wrapped_runs_ += wrapped;
  }

  const FatTree& tree_;
  ConnectionManager manager_;
  std::unique_ptr<Scheduler> scheduler_;
  Xoshiro256ss rng_;
  obs::FlightRing ring_;
  std::uint64_t mask_;
  std::vector<CableId> cables_;
  // The reference model: the path of every id ever issued (id - 1), and the
  // open ids with the flight id of the tracked ones.
  std::vector<Path> issued_;
  std::map<ConnectionId, std::optional<std::uint64_t>> open_;
  std::set<CableId> failed_;
  std::uint64_t next_flight_ = 1;
  ConnectionId pinned_ = 0;
  const Path* pinned_path_ = nullptr;
  std::uint64_t shared_homes_ = 0;
  std::uint64_t wrapped_runs_ = 0;
  std::uint64_t pin_survivals_ = 0;
  std::uint64_t tracked_closes_ = 0;
  std::uint64_t tracked_revocations_ = 0;
  std::uint64_t moved_circuits_ = 0;
};

TEST(ConnectionManagerTable, MatchesMapModel) {
  for (const Shape& shape : kShapes) {
    const FatTree tree = FatTree::create(shape.params).value();
    std::uint64_t shared = 0;
    std::uint64_t wrapped = 0;
    std::uint64_t survivals = 0;
    std::uint64_t closes = 0;
    std::uint64_t revocations = 0;
    std::uint64_t moved = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(std::string(shape.name) + " seed " + std::to_string(seed));
      Interleaving run(tree, seed);
      for (int i = 0; i < 1500; ++i) {
        run.step();
        if (testing::Test::HasFatalFailure()) return;
      }
      EXPECT_TRUE(run.manager().state().audit().ok());
      shared += run.shared_homes();
      wrapped += run.wrapped_runs();
      survivals += run.pin_survivals();
      closes += run.tracked_closes();
      revocations += run.tracked_revocations();
      moved += run.moved_circuits();
    }
    // The interleavings must reach the cases the table exists for; only the
    // two small shapes issue enough ids per live circuit to share buckets.
    EXPECT_GT(survivals, 1000u) << shape.name;
    EXPECT_GT(closes, 50u) << shape.name;
    EXPECT_GT(revocations, 50u) << shape.name;
    EXPECT_GT(moved, 10u) << shape.name;
    if (tree.node_count() <= 64) {
      EXPECT_GT(shared, 100u) << shape.name;
      EXPECT_GT(wrapped, 10u) << shape.name;
    }
  }
}

}  // namespace
}  // namespace ftsched
