// ScheduleVerifier holds its scratch across batches: the number of heap
// allocations a clean verify() makes must not depend on how many requests
// were granted, and a warm verifier makes none at all. This binary replaces
// the global operator new to count them, so it holds no other tests.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "core/levelwise_scheduler.hpp"
#include "core/verifier.hpp"

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

/// Allocations made by one verify() of a levelwise schedule of `batch`.
std::size_t verify_allocations(const FatTree& tree,
                               const std::vector<Request>& batch,
                               std::uint64_t* granted) {
  LinkState state(tree);
  LevelwiseScheduler scheduler;
  const ScheduleResult result = scheduler.schedule(tree, batch, state);
  const ScheduleVerifier verifier(tree);
  const std::size_t before = g_allocations;
  const VerifyReport report = verifier.verify(batch, result, &state);
  const std::size_t made = g_allocations - before;
  EXPECT_TRUE(report.ok()) << report.to_string();
  *granted = report.granted;
  return made;
}

TEST(VerifierAllocations, IndependentOfGrantCount) {
  for (const FatTreeParams& params :
       {FatTreeParams{3, 4, 4}, FatTreeParams{3, 6, 5}}) {
    const FatTree tree = FatTree::create(params).value();
    std::vector<Request> full;
    for (NodeId n = 0; n < tree.node_count(); ++n) {
      full.push_back(Request{n, (n + 7) % tree.node_count()});
    }
    const std::vector<Request> few(full.begin(), full.begin() + 3);
    std::uint64_t granted_full = 0;
    std::uint64_t granted_few = 0;
    const std::size_t full_allocs =
        verify_allocations(tree, full, &granted_full);
    const std::size_t few_allocs = verify_allocations(tree, few, &granted_few);
    ASSERT_GT(granted_full, 10 * granted_few);
    EXPECT_EQ(full_allocs, few_allocs)
        << granted_full << " grants vs " << granted_few;
  }
}

// Mirrors the scheduler's warm-schedule() test: once a verifier has sized
// its scratch, verifying further clean batches allocates nothing.
TEST(VerifierAllocations, WarmVerifierAllocatesNothing) {
  for (const FatTreeParams& params :
       {FatTreeParams{3, 4, 4}, FatTreeParams{3, 6, 5}}) {
    const FatTree tree = FatTree::create(params).value();
    std::vector<std::vector<Request>> batches(3);
    for (NodeId n = 0; n < tree.node_count(); ++n) {
      for (std::size_t k = 0; k < batches.size(); ++k) {
        batches[k].push_back(
            Request{n, (n + 5 + 11 * k) % tree.node_count()});
      }
    }
    LevelwiseScheduler scheduler;
    std::vector<LinkState> states;
    std::vector<ScheduleResult> results;
    for (const std::vector<Request>& batch : batches) {
      states.emplace_back(tree);
      results.push_back(scheduler.schedule(tree, batch, states.back()));
    }
    const ScheduleVerifier verifier(tree);
    ASSERT_TRUE(verifier.verify(batches[0], results[0], &states[0]).ok());
    for (std::size_t k = 1; k < batches.size(); ++k) {
      const std::size_t before = g_allocations;
      const VerifyReport report =
          verifier.verify(batches[k], results[k], &states[k]);
      const std::size_t made = g_allocations - before;
      EXPECT_TRUE(report.ok()) << report.to_string();
      EXPECT_GT(report.granted, 0u);
      EXPECT_EQ(made, 0u) << "batch " << k << " on FT(" << params.levels
                          << "," << params.child_arity << ","
                          << params.parent_arity << ")";
    }
  }
}

}  // namespace
}  // namespace ftsched
