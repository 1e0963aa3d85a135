// Fixture: raw timing sources outside src/obs and src/des must trip
// no-raw-timing — benches and tools take wall time through obs::Stopwatch,
// and counter syscalls stay out of drivers altogether. (This file is never
// compiled; it only feeds ftlint.)
#include <chrono>
#include <ctime>

namespace ftsched {

long measure_badly() {
  const auto start = std::chrono::steady_clock::now();
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  const auto stop = std::chrono::high_resolution_clock::now();
  return (stop - start).count() + ts.tv_nsec;
}

long count_cycles_badly() {
  return static_cast<long>(__rdtsc());
}

}  // namespace ftsched
