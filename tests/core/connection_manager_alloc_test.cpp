// ConnectionManager keeps its circuits in a table sized once at
// construction: close() must make no heap allocation, and the allocations
// one open_batch() makes must not depend on how many requests it grants.
// This binary replaces the global operator new to count them, so it holds
// no other tests.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>
#include <vector>

#include "core/connection_manager.hpp"
#include "core/registry.hpp"
#include "obs/flight_recorder.hpp"

namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ftsched {
namespace {

const FatTreeParams kShapes[] = {FatTreeParams{3, 4, 4},
                                 FatTreeParams{3, 6, 5}};

/// A shift: conflict-free at the leaves, so the levelwise scheduler grants
/// most of it on an empty fabric.
std::vector<Request> shift_batch(const FatTree& tree) {
  std::vector<Request> batch;
  for (NodeId n = 0; n < tree.node_count(); ++n) {
    batch.push_back(Request{n, (n + 7) % tree.node_count()});
  }
  return batch;
}

/// Allocations made by one open_batch() of `batch` on a fresh manager.
std::size_t open_batch_allocations(const FatTree& tree,
                                   const std::vector<Request>& batch,
                                   bool tracked, std::uint64_t* granted) {
  ConnectionManager manager(tree);
  obs::FlightRing ring(1024);
  std::vector<std::uint64_t> flight_ids(batch.size());
  std::iota(flight_ids.begin(), flight_ids.end(), std::uint64_t{1});
  if (tracked) manager.set_flight(&ring);
  const std::unique_ptr<Scheduler> scheduler =
      make_scheduler("levelwise", 1).value();
  // The scheduler's scratch grows on its first batches; warm it so the
  // count is the steady state of a long-lived manager.
  ConnectionManager(tree).open_batch(shift_batch(tree), *scheduler);
  const std::size_t before = g_allocations;
  const BatchOpenResult result = manager.open_batch(
      batch, *scheduler,
      tracked ? std::span<const std::uint64_t>(flight_ids)
              : std::span<const std::uint64_t>());
  const std::size_t made = g_allocations - before;
  *granted = result.granted_count();
  return made;
}

TEST(ConnectionManagerAllocations, OpenBatchIndependentOfGrantCount) {
  for (const FatTreeParams& params : kShapes) {
    const FatTree tree = FatTree::create(params).value();
    const std::vector<Request> many = shift_batch(tree);
    // As many requests, all from one source PE: the scheduler's endpoint
    // check grants the first and rejects the rest.
    std::vector<Request> one = many;
    for (Request& r : one) r.src = 0;
    for (const bool tracked : {false, true}) {
      SCOPED_TRACE(tracked ? "tracked" : "untracked");
      std::uint64_t granted_many = 0;
      std::uint64_t granted_one = 0;
      const std::size_t many_allocs =
          open_batch_allocations(tree, many, tracked, &granted_many);
      const std::size_t one_allocs =
          open_batch_allocations(tree, one, tracked, &granted_one);
      ASSERT_EQ(granted_one, 1u);
      ASSERT_GT(granted_many, 10u);
      EXPECT_EQ(many_allocs, one_allocs)
          << granted_many << " grants vs " << granted_one;
    }
  }
}

TEST(ConnectionManagerAllocations, CloseAllocatesNothing) {
  for (const FatTreeParams& params : kShapes) {
    const FatTree tree = FatTree::create(params).value();
    ConnectionManager manager(tree);
    obs::FlightRing ring(1024);
    manager.set_flight(&ring);
    const std::unique_ptr<Scheduler> scheduler =
        make_scheduler("levelwise", 1).value();
    const std::vector<Request> batch = shift_batch(tree);
    std::vector<std::uint64_t> flight_ids(batch.size());
    std::iota(flight_ids.begin(), flight_ids.end(), std::uint64_t{1});
    // Tracked grants, then a failure so the owner index is built and every
    // later close also updates it.
    const BatchOpenResult result =
        manager.open_batch(batch, *scheduler, flight_ids);
    manager.fail_cable(CableId{0, 0, 0});
    std::vector<ConnectionId> open;
    for (const auto& id : result.ids) {
      if (id && manager.find(*id) != nullptr) open.push_back(*id);
    }
    ASSERT_GT(open.size(), 10u);
    std::size_t failed = 0;
    const std::size_t before = g_allocations;
    for (const ConnectionId id : open) failed += !manager.close(id).ok();
    EXPECT_EQ(g_allocations - before, 0u);
    EXPECT_EQ(failed, 0u);
    EXPECT_EQ(manager.active_count(), 0u);
  }
}

}  // namespace
}  // namespace ftsched
