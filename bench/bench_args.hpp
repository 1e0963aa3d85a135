// Strict command-line readers shared by the benches. A count is a positive
// plain integer (util/parse.hpp); a mistyped count, a removed option or a
// surplus argument is a usage error (exit 2), never a different run.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "util/parse.hpp"

namespace ftsched::bench {

/// Reads the one positional argument, the repetition count. An unknown
/// `--` flag, a second positional, or anything but a positive plain integer
/// is a usage error: a mistyped or removed option must never turn into a
/// different repetition count.
inline bool read_reps_arg(const std::string& arg, bool& seen,
                          std::size_t& reps) {
  if (arg.rfind("--", 0) == 0) {
    std::cerr << "unknown option " << arg << "\n";
    return false;
  }
  if (seen) {
    std::cerr << "unexpected argument '" << arg << "'\n";
    return false;
  }
  const std::optional<std::uint64_t> value = parse_unsigned(arg);
  if (!value || *value == 0) {
    std::cerr << "bad count '" << arg << "' (expected a positive integer)\n";
    return false;
  }
  reps = static_cast<std::size_t>(*value);
  seen = true;
  return true;
}

/// The command line of a bench whose only argument is an optional count
/// (repetitions, rounds or a cycle window): that count, or `fallback` when
/// it is absent. Anything else prints usage and exits 2.
inline std::size_t count_arg(int argc, char** argv, std::size_t fallback) {
  std::size_t count = fallback;
  bool seen = false;
  for (int i = 1; i < argc; ++i) {
    if (!read_reps_arg(argv[i], seen, count)) {
      std::cerr << "usage: " << argv[0] << " [count]   (default " << fallback
                << ")\n";
      std::exit(2);
    }
  }
  return count;
}

}  // namespace ftsched::bench
