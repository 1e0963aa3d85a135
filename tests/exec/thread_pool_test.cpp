// ThreadPool / parallel_chunks contract tests.
//
// Everything here must also be clean under TSan (the sanitize CI matrix runs
// the full suite): the stress tests intentionally hammer the pool from many
// chunks at once so a missing fence or a racy shard merge shows up.
#include "exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "obs/link_telemetry.hpp"
#include "obs/sched_probe.hpp"

namespace ftsched::exec {
namespace {

constexpr std::size_t operator""_z(unsigned long long v) {
  return static_cast<std::size_t>(v);
}

TEST(ChunkRange, PartitionsExactlyAndInOrder) {
  for (std::size_t count : {0_z, 1_z, 7_z, 64_z, 100_z}) {
    for (std::size_t chunks : {1_z, 2_z, 3_z, 8_z, 100_z}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (std::size_t k = 0; k < chunks; ++k) {
        const ChunkRange r = chunk_range(count, chunks, k);
        EXPECT_EQ(r.begin, prev_end);  // contiguous, ascending
        EXPECT_LE(r.begin, r.end);
        covered += r.size();
        prev_end = r.end;
      }
      EXPECT_EQ(covered, count);
      EXPECT_EQ(prev_end, count);
    }
  }
}

TEST(ChunkRange, FrontLoadsTheRemainder) {
  // 10 items over 4 chunks: 3,3,2,2.
  EXPECT_EQ(chunk_range(10, 4, 0).size(), 3u);
  EXPECT_EQ(chunk_range(10, 4, 1).size(), 3u);
  EXPECT_EQ(chunk_range(10, 4, 2).size(), 2u);
  EXPECT_EQ(chunk_range(10, 4, 3).size(), 2u);
  // More chunks than items: one item each, then empty.
  EXPECT_EQ(chunk_range(2, 4, 1).size(), 1u);
  EXPECT_TRUE(chunk_range(2, 4, 2).empty());
}

TEST(ThreadPool, RunsEveryWorkerExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](std::size_t k) { hits[k].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  std::size_t seen = 99;
  pool.run([&](std::size_t k) { seen = k; });
  EXPECT_EQ(seen, 0u);
}

TEST(ThreadPool, ReusableAcrossManyRounds) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.run([&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 600);
}

TEST(ThreadPool, ParallelChunksCoverEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<int> touched(1000, 0);
  std::vector<std::size_t> lane_of(touched.size(), 99);
  parallel_chunks(pool, touched.size(), [&](std::size_t k, ChunkRange r) {
    EXPECT_EQ(r.begin, chunk_range(touched.size(), 4, k).begin);
    for (std::size_t i = r.begin; i < r.end; ++i) {
      ++touched[i];
      lane_of[i] = k;
    }
  });
  for (int t : touched) EXPECT_EQ(t, 1);
  EXPECT_TRUE(std::is_sorted(lane_of.begin(), lane_of.end()));
  EXPECT_EQ(lane_of.back(), 3u);
}

// The deterministic reduce the repetition engines perform: each lane folds
// its own chunk into a private shard, and the caller folds the shards in lane
// order after the join, which is index order at every pool width.
TEST(ParallelReduce, FoldIsSequentialInIndexOrder) {
  ThreadPool pool(4);
  // Non-commutative fold (digit append): the result is only right if both
  // the per-lane fold and the shard merge really walk index order.
  struct Shard {
    std::uint64_t digits = 0;
    std::uint64_t scale = 1;
  };
  std::vector<Shard> shards(pool.thread_count());
  parallel_chunks(pool, 7, [&](std::size_t k, ChunkRange r) {
    for (std::size_t i = r.begin; i < r.end; ++i) {
      shards[k].digits = shards[k].digits * 10 + (i + 1);
      shards[k].scale *= 10;
    }
  });
  std::uint64_t digits = 0;
  for (const Shard& s : shards) digits = digits * s.scale + s.digits;
  EXPECT_EQ(digits, 1234567u);
}

TEST(ParallelReduce, MatchesSequentialAtEveryWidth) {
  // Per-lane shards appended in lane order give the sequential sequence at
  // every width: the merge the repetition engines rely on.
  std::vector<std::uint64_t> sequential(257);
  std::iota(sequential.begin(), sequential.end(), 1);
  for (std::size_t width : {1_z, 2_z, 3_z, 8_z}) {
    ThreadPool pool(width);
    std::vector<std::vector<std::uint64_t>> shards(width);
    parallel_chunks(pool, sequential.size(), [&](std::size_t k, ChunkRange r) {
      for (std::size_t i = r.begin; i < r.end; ++i) shards[k].push_back(i + 1);
    });
    std::vector<std::uint64_t> merged;
    for (const auto& shard : shards) {
      merged.insert(merged.end(), shard.begin(), shard.end());
    }
    EXPECT_EQ(merged, sequential);
  }
}

TEST(ThreadPool, ParallelChunksSkipsEmptyLanes) {
  ThreadPool pool(4);
  std::atomic<int> lanes{0};
  parallel_chunks(pool, 2, [&](std::size_t, ChunkRange) { lanes.fetch_add(1); });
  EXPECT_EQ(lanes.load(), 2);
  parallel_chunks(pool, 0, [&](std::size_t, ChunkRange) { lanes.fetch_add(1); });
  EXPECT_EQ(lanes.load(), 2);
}

// Stress: many rounds of concurrent shard filling followed by an in-order
// merge — the exact access pattern of the parallel experiment runner
// (private probe/telemetry per chunk, merged after the join). Under TSan
// this is the test that catches a pool with a missing happens-before edge
// between worker writes and the caller's merge reads.
TEST(ThreadPoolStress, ShardFillThenMergeIsRaceFree) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kReps = 64;
  const std::vector<obs::LinkLevelShape> shape{{4, 4}};
  ThreadPool pool(kThreads);
  for (int round = 0; round < 20; ++round) {
    std::vector<obs::SchedulerProbe> probes(kThreads);
    std::vector<obs::LinkTelemetry> shards;
    for (std::size_t k = 0; k < kThreads; ++k) {
      shards.emplace_back(obs::LinkTelemetryOptions{1, 4});
    }
    parallel_chunks(pool, kReps, [&](std::size_t k, ChunkRange chunk) {
      for (std::size_t rep = chunk.begin; rep < chunk.end; ++rep) {
        probes[k].on_batch_begin(4);
        probes[k].on_grant(1);
        probes[k].on_reject(0, 1);
        probes[k].on_port_pick(0, static_cast<std::uint32_t>(rep % 4));
        shards[k].configure(shape);
        shards[k].begin_sample(rep);
        shards[k].record_channel(0, rep % 4, static_cast<std::uint32_t>(
                                                 (rep + 1) % 4),
                                 obs::ChannelDir::kUp, true);
        shards[k].end_sample();
      }
    });
    obs::SchedulerProbe merged;
    obs::LinkTelemetry telemetry(obs::LinkTelemetryOptions{2, 4});
    for (std::size_t k = 0; k < kThreads; ++k) {
      merged.merge_from(probes[k]);
      telemetry.merge_shard(shards[k]);
    }
    EXPECT_EQ(merged.grants(), kReps);
    EXPECT_EQ(merged.rejects(), kReps);
    EXPECT_EQ(telemetry.samples(), kReps);
    // series_every=2 applied to merged ordinals: half the samples kept.
    ASSERT_EQ(telemetry.series().size(), kReps / 2);
    for (std::size_t i = 0; i < telemetry.series().size(); ++i) {
      EXPECT_EQ(telemetry.series()[i].t, 2 * i);
    }
  }
}

}  // namespace
}  // namespace ftsched::exec
