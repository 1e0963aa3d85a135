// Stopwatch — the one wall-clock primitive drivers are allowed to hold.
//
// Benches and tools need "how long did that take" without each of them
// reading std::chrono directly: raw clock reads are banned outside src/obs
// and src/des by ftlint's `no-raw-timing` rule, so run-to-run equality
// arguments stay auditable (every timestamp source is in one subsystem).
// This is that seam for plain elapsed time; trace spans go through
// obs::ScopedSpan.
#pragma once

#include <cstdint>

namespace ftsched::obs {

/// Monotonic elapsed-time meter. Starts running at construction.
class Stopwatch {
 public:
  Stopwatch() { restart(); }

  /// Re-arms the zero point.
  void restart();

  /// Nanoseconds since construction or the last restart().
  std::uint64_t elapsed_ns() const;

  double elapsed_ms() const {
    return static_cast<double>(elapsed_ns()) / 1e6;
  }

 private:
  std::uint64_t base_ns_ = 0;
};

}  // namespace ftsched::obs
