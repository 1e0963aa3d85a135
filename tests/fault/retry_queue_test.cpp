#include "fault/retry_queue.hpp"

#include <gtest/gtest.h>

namespace ftsched {
namespace {

RetryEntry entry(std::uint64_t seq, SimTime eligible) {
  RetryEntry e;
  e.request = Request{seq, seq + 1};
  e.seq = seq;
  e.eligible_at = eligible;
  return e;
}

TEST(RetryQueue, TakeDueReturnsSeqOrder) {
  RetryQueue q;
  EXPECT_TRUE(q.admit(entry(2, 5)));
  EXPECT_TRUE(q.admit(entry(0, 5)));
  EXPECT_TRUE(q.admit(entry(1, 5)));
  const auto due = q.take_due(5);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].seq, 0u);
  EXPECT_EQ(due[1].seq, 1u);
  EXPECT_EQ(due[2].seq, 2u);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(RetryQueue, FutureEntriesStayQueued) {
  RetryQueue q;
  EXPECT_TRUE(q.admit(entry(0, 3)));
  EXPECT_TRUE(q.admit(entry(1, 10)));
  auto due = q.take_due(3);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].seq, 0u);
  EXPECT_EQ(q.pending(), 1u);
  due = q.take_due(10);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].seq, 1u);
}

TEST(RetryQueue, EmptyDrainIsEmpty) {
  RetryQueue q;
  EXPECT_TRUE(q.take_due(100).empty());
}

TEST(RetryQueue, AdmissionGateSheds) {
  RetryQueue q(2);
  EXPECT_TRUE(q.admit(entry(0, 1)));
  EXPECT_TRUE(q.admit(entry(1, 1)));
  EXPECT_FALSE(q.admit(entry(2, 1)));  // gate closed
  EXPECT_EQ(q.shed(), 1u);
  EXPECT_EQ(q.pending(), 2u);
  (void)q.take_due(1);
  EXPECT_TRUE(q.admit(entry(3, 2)));  // space again
}

TEST(RetryQueue, PeakPendingTracksHighWater) {
  RetryQueue q;
  EXPECT_TRUE(q.admit(entry(0, 1)));
  EXPECT_TRUE(q.admit(entry(1, 1)));
  (void)q.take_due(1);
  EXPECT_TRUE(q.admit(entry(2, 2)));
  EXPECT_EQ(q.peak_pending(), 2u);
}

TEST(RetryQueue, BoundaryShedsExactlyWhileFullUnderChurn) {
  // Drive the gate at its boundary through fill/drain cycles: an admit at
  // pending == max_pending sheds, an admit one drain later succeeds, and
  // the shed counter moves only on actual rejections.
  RetryQueue q(2);
  std::uint64_t seq = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    const SimTime now = static_cast<SimTime>(cycle);
    EXPECT_TRUE(q.admit(entry(seq++, now)));
    EXPECT_TRUE(q.admit(entry(seq++, now)));
    EXPECT_FALSE(q.admit(entry(seq++, now)));  // full — shed
    EXPECT_EQ(q.pending(), 2u);
    const auto due = q.take_due(now);
    EXPECT_EQ(due.size(), 2u);
    EXPECT_TRUE(q.admit(entry(seq++, now + 1)));  // space again
    (void)q.take_due(now + 1);
  }
  EXPECT_EQ(q.shed(), 3u);
  EXPECT_EQ(q.peak_pending(), 2u);
}

TEST(RetryQueue, ReadmissionAfterShedKeepsSeqOrderWithinDrain) {
  // Shed-then-readmit: a victim shed at the boundary re-enters later (the
  // repair path re-submits it) with its ORIGINAL seq. However late it was
  // admitted, one drain returns entries in grant (seq) order — not
  // admission order.
  RetryQueue q(3);
  EXPECT_TRUE(q.admit(entry(5, 4)));
  EXPECT_TRUE(q.admit(entry(7, 4)));
  EXPECT_TRUE(q.admit(entry(2, 4)));
  EXPECT_FALSE(q.admit(entry(9, 4)));  // shed at the boundary
  auto due = q.take_due(4);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].seq, 2u);
  EXPECT_EQ(due[1].seq, 5u);
  EXPECT_EQ(due[2].seq, 7u);
  // The shed victim re-admits after the drain and is not double-counted.
  EXPECT_TRUE(q.admit(entry(9, 6)));
  due = q.take_due(6);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].seq, 9u);
  EXPECT_EQ(q.shed(), 1u);
}

TEST(RetryQueue, UnlimitedGateNeverSheds) {
  RetryQueue q;  // max_pending = 0 → unlimited
  for (std::uint64_t i = 0; i < 512; ++i) {
    EXPECT_TRUE(q.admit(entry(i, 1)));
  }
  EXPECT_EQ(q.shed(), 0u);
  EXPECT_EQ(q.pending(), 512u);
  EXPECT_EQ(q.take_due(1).size(), 512u);
}

TEST(RetryQueueDeath, DuplicateSeqRejected) {
  RetryQueue q;
  EXPECT_TRUE(q.admit(entry(4, 1)));
  EXPECT_DEATH((void)q.admit(entry(4, 2)), "duplicate seq");
}

// --- Watermark: next_due() is the earliest pending eligible_at ----------

TEST(RetryQueueWatermark, EmptyQueueIsNever) {
  RetryQueue q;
  EXPECT_EQ(q.next_due(), RetryQueue::kNever);
  EXPECT_TRUE(q.take_due(RetryQueue::kNever).empty());
  EXPECT_EQ(q.next_due(), RetryQueue::kNever);
}

TEST(RetryQueueWatermark, OlderSeqReadmittedEarlierLowersIt) {
  // Re-admitting an older seq with an earlier eligible_at lowers the
  // watermark even though the entry sorts to the front by seq.
  RetryQueue q;
  EXPECT_TRUE(q.admit(entry(7, 20)));
  EXPECT_TRUE(q.admit(entry(9, 30)));
  EXPECT_EQ(q.next_due(), 20u);
  EXPECT_TRUE(q.admit(entry(3, 12)));
  EXPECT_EQ(q.next_due(), 12u);
  EXPECT_TRUE(q.take_due(11).empty());
  const auto due = q.take_due(12);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].seq, 3u);
  EXPECT_EQ(q.next_due(), 20u);
}

TEST(RetryQueueWatermark, PartialDrainKeepsLaterEntries) {
  RetryQueue q;
  EXPECT_TRUE(q.admit(entry(0, 5)));
  EXPECT_TRUE(q.admit(entry(1, 9)));
  EXPECT_TRUE(q.admit(entry(2, 5)));
  EXPECT_TRUE(q.admit(entry(3, 7)));
  auto due = q.take_due(6);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].seq, 0u);
  EXPECT_EQ(due[1].seq, 2u);
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(q.next_due(), 7u);  // recomputed over the survivors
  due = q.take_due(7);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].seq, 3u);
  EXPECT_EQ(q.next_due(), 9u);
}

TEST(RetryQueueWatermark, DrainToEmptyResetsIt) {
  RetryQueue q;
  EXPECT_TRUE(q.admit(entry(0, 4)));
  EXPECT_TRUE(q.admit(entry(1, 6)));
  EXPECT_EQ(q.take_due(10).size(), 2u);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.next_due(), RetryQueue::kNever);
  // A later admission sets it afresh, even one earlier than the last drain.
  EXPECT_TRUE(q.admit(entry(2, 3)));
  EXPECT_EQ(q.next_due(), 3u);
}

TEST(RetryQueueWatermark, EmptyWakeUpsLeaveTheQueueUnchanged) {
  // The fabric manager schedules one wake-up per retry, so most take_due
  // calls find nothing due; they must neither drain nor reorder anything.
  RetryQueue q;
  EXPECT_TRUE(q.admit(entry(4, 50)));
  EXPECT_TRUE(q.admit(entry(1, 40)));
  EXPECT_TRUE(q.admit(entry(6, 45)));
  for (SimTime now = 0; now < 40; ++now) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      EXPECT_TRUE(q.take_due(now).empty());
    }
  }
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_EQ(q.next_due(), 40u);
  const auto due = q.take_due(50);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].seq, 1u);
  EXPECT_EQ(due[1].seq, 4u);
  EXPECT_EQ(due[2].seq, 6u);
  EXPECT_EQ(due[1].request, (Request{4, 5}));
}

TEST(RetryQueueWatermark, ShedAdmissionLeavesItAlone) {
  RetryQueue q(1);
  EXPECT_TRUE(q.admit(entry(0, 8)));
  EXPECT_FALSE(q.admit(entry(1, 2)));  // shed: must not lower the mark
  EXPECT_EQ(q.next_due(), 8u);
  EXPECT_TRUE(q.take_due(7).empty());
  EXPECT_EQ(q.pending(), 1u);
}

}  // namespace
}  // namespace ftsched
