// RetryPolicy — when (and whether) a rejected or revoked request retries.
//
// The fabric manager consults the policy after every failed attempt: it
// answers "wait this many ticks, then try again" or "give up" (permanent
// reject). Policies are pure value types; the only randomness is optional
// backoff jitter, drawn from a caller-owned RNG so retry schedules stay
// deterministic per seed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/contracts.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace ftsched {

struct RetryPolicy {
  enum class Kind : std::uint8_t {
    kNone,       ///< never retry: every failure is final
    kImmediate,  ///< re-attempt in the same tick (delay 0)
    kFixed,      ///< constant delay between attempts
    kBackoff,    ///< exponential: base · multiplier^(attempt-1), capped
  };

  Kind kind = Kind::kBackoff;
  std::uint64_t base_delay = 1;   ///< ticks; kFixed delay / kBackoff first step
  double multiplier = 2.0;        ///< kBackoff growth factor (>= 1)
  std::uint64_t max_delay = 64;   ///< kBackoff cap, ticks
  std::uint32_t max_retries = 8;  ///< attempts after the first; then reject
  double jitter = 0.0;            ///< kBackoff: uniform extra in [0, j·delay]

  static RetryPolicy none();
  static RetryPolicy immediate(std::uint32_t max_retries = 8);
  static RetryPolicy fixed(std::uint64_t delay, std::uint32_t max_retries = 8);
  static RetryPolicy backoff(std::uint64_t base, double multiplier,
                             std::uint64_t max_delay,
                             std::uint32_t max_retries = 8,
                             double jitter = 0.0);

  /// Delay before the `attempt`-th retry (1-based), or nullopt = give up.
  /// `rng` is consumed only when jitter is in effect (kind == kBackoff and
  /// jitter > 0), so jitter-free policies never disturb the caller's stream.
  std::optional<std::uint64_t> delay_for(std::uint32_t attempt,
                                         Xoshiro256ss& rng) const;

  /// Round-trippable rendering, same grammar parse_retry_policy accepts.
  std::string spec() const;
};

/// Parses "none" | "immediate[:R]" | "fixed:D[:R]" | "backoff:B[:R[:J]]"
/// where R = max retries, D/B = ticks, J = jitter fraction. backoff uses
/// multiplier 2 and cap 64·B. A number past its field's range (R above
/// 2^32-1, D above 2^64-1, B above (2^64-1)/64 so the cap fits) is an
/// error naming the field, never a wrapped or narrowed value.
Result<RetryPolicy> parse_retry_policy(const std::string& text);

}  // namespace ftsched
