#include "host_speed.hpp"

#include <bit>
#include <cmath>
#include <numeric>
#include <utility>

#include "obs/stopwatch.hpp"

namespace ftsched::e2e {

namespace {

constexpr std::size_t kRequests = 4096;
constexpr std::size_t kSwitches = kRequests / 16;
// Timed batches per form and sample: together about 1 ms on the
// development VM, 1% of the shortest round.
constexpr std::size_t kTimedBatches = 5;
// Median time of kTimedBatches batches on the calm development VM (Intel
// Xeon, 4 vCPUs), per form.
constexpr double kPoolReferenceNs = 650000.0;
constexpr double kBumpReferenceNs = 350000.0;
// The pool keeps what it takes from its arena and reuses it, so after the
// first batch it takes no more. The largest block a batch asks for (the
// paths vector, 96 KiB) must come from a pool too, or every batch would
// take it from the arena anew.
constexpr std::size_t kPoolArenaBytes = std::size_t{4} << 20;
constexpr std::size_t kLargestPoolBlock = std::size_t{128} << 10;
// One batch uses about 200 KiB of a bump arena.
constexpr std::size_t kBumpArenaBytes = std::size_t{512} << 10;

std::uint64_t next_random(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30U)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27U)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31U);
}

/// One batch: a seeded permutation, greedy first-fit ports through one
/// middle stage, each granted path kept as {source switch, port, target
/// switch}. Returns the number of granted requests.
std::uint64_t batch(std::pmr::memory_resource* memory, std::uint64_t& seed) {
  std::pmr::vector<std::uint32_t> target(kRequests, memory);
  std::iota(target.begin(), target.end(), 0U);
  for (std::size_t i = kRequests - 1; i > 0; --i) {
    std::swap(target[i], target[next_random(seed) % (i + 1)]);
  }
  std::pmr::vector<std::uint16_t> up(kSwitches, 0xffff, memory);
  std::pmr::vector<std::uint16_t> down(kSwitches, 0xffff, memory);
  std::pmr::vector<std::pmr::vector<std::uint32_t>> paths(memory);
  paths.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    const std::size_t from = i / 16;
    const std::size_t to = target[i] / 16;
    const unsigned free = static_cast<unsigned>(up[from] & down[to]);
    std::pmr::vector<std::uint32_t>& path = paths.emplace_back();
    if (free == 0) continue;
    const int port = std::countr_zero(free);
    const auto taken = static_cast<std::uint16_t>(~(1U << port));
    up[from] &= taken;
    down[to] &= taken;
    path.assign({static_cast<std::uint32_t>(from),
                 static_cast<std::uint32_t>(port),
                 static_cast<std::uint32_t>(to)});
  }
  std::uint64_t granted = 0;
  for (const auto& path : paths) granted += path.empty() ? 0U : 1U;
  return granted;
}

std::pmr::pool_options pool_options() {
  std::pmr::pool_options options;
  options.largest_required_pool_block = kLargestPoolBlock;
  return options;
}

/// One untimed batch, then kTimedBatches timed ones; returns their time.
template <typename Batch>
double time_batches(std::uint64_t& sink, Batch run) {
  sink += run();
  const obs::Stopwatch watch;
  for (std::size_t i = 0; i < kTimedBatches; ++i) sink += run();
  return static_cast<double>(watch.elapsed_ns());
}

}  // namespace

HostSpeed::HostSpeed()
    : pool_arena_(kPoolArenaBytes),
      pool_upstream_(pool_arena_.data(), pool_arena_.size(),
                     std::pmr::null_memory_resource()),
      pool_(pool_options(), &pool_upstream_),
      bump_arena_(kBumpArenaBytes) {}

double HostSpeed::slowdown() {
  const double pool_ns =
      time_batches(sink_, [this] { return batch(&pool_, seed_); });
  const double bump_ns = time_batches(sink_, [this] {
    std::pmr::monotonic_buffer_resource memory(
        bump_arena_.data(), bump_arena_.size(),
        std::pmr::null_memory_resource());
    return batch(&memory, seed_);
  });
  return std::sqrt(pool_ns / kPoolReferenceNs * bump_ns / kBumpReferenceNs);
}

}  // namespace ftsched::e2e
