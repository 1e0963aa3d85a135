// exec — deterministic multi-core execution primitives.
//
// The experiment engine's parallelism is STATIC: work is split into exactly
// thread_count() contiguous chunks, chunk k always runs on worker k, and
// reductions fold partial results in chunk order. Nothing observable depends
// on thread scheduling, so any computation built from these primitives is
// bit-identical at every thread count — the property the stats runner's
// determinism contract (docs/PERFORMANCE.md) rests on. Compare work-stealing
// pools, where chunk→thread assignment (and therefore any per-thread
// accumulator) varies run to run.
//
// This is the only place in src/ allowed to touch <thread>; everything else
// must go through the pool (enforced by ftlint's no-raw-thread rule), so
// determinism and TSan coverage stay centralized.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "exec/sync.hpp"
#include "util/contracts.hpp"

namespace ftsched::exec {

/// The machine's advertised concurrency (>= 1 even when unknown). A hint for
/// callers picking a default thread count; never consulted internally, so
/// explicit thread counts stay reproducible across machines.
std::size_t hardware_threads();

/// Half-open index range of one static chunk.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
  bool empty() const { return begin == end; }
};

/// Splits [0, count) into `chunks` contiguous ranges; the first count%chunks
/// ranges hold one extra element. Pure arithmetic — chunk k's range depends
/// only on (count, chunks, k), never on timing.
constexpr ChunkRange chunk_range(std::size_t count, std::size_t chunks,
                                 std::size_t k) {
  const std::size_t base = count / chunks;
  const std::size_t extra = count % chunks;
  const std::size_t begin = k * base + (k < extra ? k : extra);
  return ChunkRange{begin, begin + base + (k < extra ? 1 : 0)};
}

/// Fixed-size pool of thread_count() - 1 workers plus the calling thread.
/// run(job) invokes job(k) once for every k in [0, thread_count()): job 0 on
/// the caller, job k on worker k, and returns after all complete — one
/// barrier per run, no task queue. A pool of 1 never spawns a thread and
/// run() degenerates to a plain call, so single-threaded users pay nothing.
///
/// Jobs must not throw (the repo's contracts abort, they never unwind) and
/// must not call run() reentrantly.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t thread_count);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return thread_count_; }

  void run(const std::function<void(std::size_t)>& job);

 private:
  void worker_loop(std::size_t worker_index);

  std::size_t thread_count_;
  std::vector<std::thread> workers_;  // touched only by the owning thread

  Mutex mutex_;
  std::condition_variable_any wake_;
  std::condition_variable_any done_;
  const std::function<void(std::size_t)>* job_ FT_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t generation_ FT_GUARDED_BY(mutex_) = 0;
  std::size_t pending_ FT_GUARDED_BY(mutex_) = 0;
  bool stop_ FT_GUARDED_BY(mutex_) = false;
};

/// The repetition engine: fn(k, range) once per lane k with chunk k's
/// half-open range, chunk k on thread k. The lane index selects the state
/// that chunk owns exclusively: run_experiment and run_degradation give
/// each lane a private shard (scheduler, probe, telemetry or flight ring)
/// and fold the shards in lane order after the join, which is repetition
/// order. On a pool of one the single lane runs inline on the caller.
template <typename Fn>
void parallel_chunks(ThreadPool& pool, std::size_t count, Fn&& fn) {
  if (count == 0) return;
  const std::size_t chunks = pool.thread_count();
  pool.run([&](std::size_t k) {
    const ChunkRange r = chunk_range(count, chunks, k);
    if (!r.empty()) fn(k, r);
  });
}

}  // namespace ftsched::exec
