// The per-request schedulers own their batch scratch: label arrays, the leaf
// tracker, the transaction. Once warm, one schedule() call therefore makes
// exactly one heap allocation, the outcomes vector it returns, whatever the
// batch size and however many requests it grants. This binary replaces the
// global operator new to count allocations, so it holds no other tests.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "workload/patterns.hpp"

namespace {
std::size_t g_allocations = 0;
}  // namespace

// Not inlined: GCC's -O3 would otherwise pair the inlined std::free with
// an allocation it still sees as operator new and warn (mismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ftsched {
namespace {

const char* const kSchedulers[] = {"levelwise",   "levelwise-reqmajor",
                                   "levelwise-balanced", "local",
                                   "local-random", "dmodk"};

/// Allocations made by one schedule() of `batch` on a reset fabric, after
/// two warm-up calls with the same batch.
std::size_t schedule_allocations(Scheduler& scheduler, const FatTree& tree,
                                 const std::vector<Request>& batch,
                                 std::uint64_t* granted) {
  LinkState state(tree);
  for (int warm = 0; warm < 2; ++warm) {
    state.reset();
    scheduler.schedule(tree, batch, state);
  }
  state.reset();
  const std::size_t before = g_allocations;
  const ScheduleResult result = scheduler.schedule(tree, batch, state);
  const std::size_t made = g_allocations - before;
  *granted = result.granted_count();
  return made;
}

TEST(SchedulerAllocations, OneAllocationPerScheduleCall) {
  const FatTree tree = FatTree::symmetric(3, 16);
  Xoshiro256ss rng(17);
  const std::vector<Request> full = random_permutation(tree.node_count(), rng);
  const std::vector<Request> small(full.begin(), full.begin() + 32);
  // A quarter of the sources aim at PE 0: leaf conflicts and rejections.
  const std::vector<Request> hot =
      generate_pattern(tree, TrafficPattern::kHotSpot, rng);
  ASSERT_EQ(full.size(), 4096u);
  for (const char* name : kSchedulers) {
    const std::unique_ptr<Scheduler> scheduler =
        make_scheduler(name, 3).value();
    for (const std::vector<Request>* batch : {&full, &small, &hot}) {
      SCOPED_TRACE(std::string(name) + ", " + std::to_string(batch->size()) +
                   " requests" + (batch == &hot ? " (hot spot)" : ""));
      std::uint64_t granted = 0;
      EXPECT_EQ(schedule_allocations(*scheduler, tree, *batch, &granted), 1u);
      EXPECT_GT(granted, 0u);
    }
  }
}

}  // namespace
}  // namespace ftsched
