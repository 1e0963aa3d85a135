// Deterministic random number generation for experiments.
//
// Every randomized experiment in ftsched (permutation draws, random port
// policies) takes an explicit 64-bit seed so each figure is reproducible
// run-to-run and machine-to-machine. The generator is xoshiro256** — fast,
// small state, passes BigCrush — seeded through splitmix64 so that
// low-entropy seeds (0, 1, 2, …) still yield well-mixed streams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "util/contracts.hpp"

namespace ftsched {

/// splitmix64 step; used for seeding and for hashing experiment labels into
/// per-stream seeds.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The splitmix64 state repetition `rep` of an experiment seeded `seed`
/// draws its streams from (workload first, then the scheduler's). It depends
/// only on (seed, rep), never on the thread that runs the repetition.
inline std::uint64_t repetition_seed(std::uint64_t seed, std::size_t rep) {
  return seed + 0x9e3779b97f4a7c15ULL * (rep + 1);
}

class Xoshiro256ss {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256ss(std::uint64_t seed = 0x2006'5C06'F47'72EEULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire rejection).
  std::uint64_t below(std::uint64_t bound) {
    FT_REQUIRE(bound > 0);
    // Fast path for power-of-two bounds.
    if ((bound & (bound - 1)) == 0) return (*this)() & (bound - 1);
    const std::uint64_t threshold = (0 - bound) % bound;
    while (true) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    FT_REQUIRE(lo <= hi);
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform01() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Fisher–Yates shuffle of [first, last).
  template <typename It>
  void shuffle(It first, It last) {
    const auto n = static_cast<std::uint64_t>(last - first);
    for (std::uint64_t i = n; i > 1; --i) {
      const std::uint64_t j = below(i);
      using std::swap;
      swap(first[static_cast<std::ptrdiff_t>(i - 1)],
           first[static_cast<std::ptrdiff_t>(j)]);
    }
  }

  /// Derives an independent child stream; `salt` distinguishes siblings.
  Xoshiro256ss fork(std::uint64_t salt) {
    std::uint64_t sm = (*this)() ^ (salt * 0x9e3779b97f4a7c15ULL);
    return Xoshiro256ss(splitmix64(sm));
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace ftsched
