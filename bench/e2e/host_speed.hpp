// HostSpeed — how fast the host runs right now, from a fixed reference task.
//
// The benchmark shares a few vCPUs of a busy host. For minutes at a time the
// host runs the same code 20-80% slower, and CPU time slows as much as wall
// time, so no statistic taken within one run removes it. HostSpeed times a
// small task of its own between the workload's rounds. The task does the
// kind of work the library does, on data it alone owns: it assigns ports to
// a 4096-request permutation greedily with 16-bit free-port masks, and keeps
// each granted path in a small vector of its own. It calls nothing in the
// library and does not use the global heap, so a change to the library
// cannot change how long it takes; only the host can.
//
// A slow spell slows some code more than other code. The task runs in two
// forms that bracket the library's code: the path vectors come either from
// a private free-list pool (std::pmr::unsynchronized_pool_resource), one
// allocation and one release per request like the library's per-request
// vectors, or from a private bump arena, almost free of allocator work. In
// calibration runs the pool form slowed more than the workloads and the
// arena form less; their geometric mean tracked every workload's own
// slowdown best (bench/e2e/README.md, "Host speed").
//
// slowdown() is that geometric mean of the two forms' times over their times
// on the calm development VM, so it reads about 1 there and 1.3 when the host
// is 30% slow. Dividing a measured time by the slowdown around it gives the
// time at reference host speed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <vector>

namespace ftsched::e2e {

class HostSpeed {
 public:
  HostSpeed();

  /// Runs each form once untimed, to bring its data back into cache, then
  /// a few times timed.
  double slowdown();

 private:
  std::vector<std::byte> pool_arena_;
  std::pmr::monotonic_buffer_resource pool_upstream_;
  std::pmr::unsynchronized_pool_resource pool_;
  std::vector<std::byte> bump_arena_;
  std::uint64_t seed_ = 0;
  std::uint64_t sink_ = 0;  ///< sum of the results, so none is dropped
};

}  // namespace ftsched::e2e
