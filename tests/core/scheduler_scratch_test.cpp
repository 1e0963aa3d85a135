// Schedulers keep their batch scratch (label arrays, leaf tracker,
// transaction, round-robin cursors) from one schedule() call to the next.
// Reuse must be invisible: one instance that alternates fabrics of
// different sizes and shapes, on permutations and on hot spots with leaf
// conflicts, must decide every batch exactly as a freshly built scheduler
// with the same seed does. A tracker left dirty or sized for another
// fabric, or a transaction left unsettled, shows up here as a diverging
// outcome, a diverging link state or a contract abort.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "workload/patterns.hpp"

namespace ftsched {
namespace {

constexpr std::uint64_t kSeed = 41;
constexpr std::size_t kShortBatch = 32;

const FatTreeParams kShapes[] = {FatTreeParams{2, 4, 4},
                                 FatTreeParams{3, 16, 16},
                                 FatTreeParams{3, 6, 5}};  // slimmed: w < m

bool supports(const std::string& name, const FatTreeParams& shape) {
  if (name == "matching2") return shape.levels == 2;
  if (name == "dmodk") return shape.parent_arity >= shape.child_arity;
  return true;
}

TEST(SchedulerScratch, ReusedInstanceMatchesFreshOneAcrossFabrics) {
  for (const std::string& name : scheduler_names()) {
    const std::unique_ptr<Scheduler> reused =
        make_scheduler(name, kSeed).value();
    std::uint64_t batch_index = 0;
    for (int round = 0; round < 2; ++round) {
      for (const FatTreeParams& shape : kShapes) {
        if (!supports(name, shape)) continue;
        const FatTree tree = FatTree::create(shape).value();
        for (const TrafficPattern pattern :
             {TrafficPattern::kRandomPermutation, TrafficPattern::kHotSpot}) {
          Xoshiro256ss rng(1000 + batch_index++);
          const std::vector<Request> batch =
              generate_pattern(tree, pattern, rng);
          // A short batch (fewer requests than the leaf tracker has bit
          // words on FT(3,16)) and the full one, back to back on the
          // reused instance.
          for (const std::size_t size :
               {std::min<std::size_t>(kShortBatch, batch.size()),
                batch.size()}) {
            const std::span<const Request> requests(batch.data(), size);
            SCOPED_TRACE(name + " on FT(" + std::to_string(shape.levels) +
                         "," + std::to_string(shape.child_arity) + "," +
                         std::to_string(shape.parent_arity) + "), " +
                         std::string(to_string(pattern)) + ", " +
                         std::to_string(size) + " requests, round " +
                         std::to_string(round));
            const std::unique_ptr<Scheduler> fresh =
                make_scheduler(name, kSeed).value();
            reused->reseed(kSeed);
            LinkState reused_state(tree);
            LinkState fresh_state(tree);
            const ScheduleResult got =
                reused->schedule(tree, requests, reused_state);
            const ScheduleResult want =
                fresh->schedule(tree, requests, fresh_state);
            EXPECT_EQ(got, want);
            EXPECT_TRUE(reused_state == fresh_state);
            if (pattern == TrafficPattern::kHotSpot) {
              std::uint64_t leaf_busy = 0;
              for (const RequestOutcome& out : got.outcomes) {
                leaf_busy += out.reason == RejectReason::kLeafBusy;
              }
              EXPECT_GT(leaf_busy, 0u);
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ftsched
