#include "fault/retry_policy.hpp"

#include <algorithm>
#include <limits>
#include <vector>

namespace ftsched {

RetryPolicy RetryPolicy::none() {
  RetryPolicy p;
  p.kind = Kind::kNone;
  p.max_retries = 0;
  return p;
}

RetryPolicy RetryPolicy::immediate(std::uint32_t max_retries) {
  RetryPolicy p;
  p.kind = Kind::kImmediate;
  p.max_retries = max_retries;
  return p;
}

RetryPolicy RetryPolicy::fixed(std::uint64_t delay, std::uint32_t max_retries) {
  FT_REQUIRE(delay >= 1);
  RetryPolicy p;
  p.kind = Kind::kFixed;
  p.base_delay = delay;
  p.max_retries = max_retries;
  return p;
}

RetryPolicy RetryPolicy::backoff(std::uint64_t base, double multiplier,
                                 std::uint64_t max_delay,
                                 std::uint32_t max_retries, double jitter) {
  FT_REQUIRE(base >= 1);
  FT_REQUIRE(multiplier >= 1.0);
  FT_REQUIRE(max_delay >= base);
  FT_REQUIRE(jitter >= 0.0);
  RetryPolicy p;
  p.kind = Kind::kBackoff;
  p.base_delay = base;
  p.multiplier = multiplier;
  p.max_delay = max_delay;
  p.max_retries = max_retries;
  p.jitter = jitter;
  return p;
}

std::optional<std::uint64_t> RetryPolicy::delay_for(std::uint32_t attempt,
                                                    Xoshiro256ss& rng) const {
  FT_REQUIRE(attempt >= 1);
  if (kind == Kind::kNone || attempt > max_retries) return std::nullopt;
  switch (kind) {
    case Kind::kNone:
      return std::nullopt;
    case Kind::kImmediate:
      return 0;
    case Kind::kFixed:
      return base_delay;
    case Kind::kBackoff: {
      double d = static_cast<double>(base_delay);
      const double cap = static_cast<double>(max_delay);
      for (std::uint32_t i = 1; i < attempt && d < cap; ++i) d *= multiplier;
      // d < cap <= 2^64 here makes the cast defined; a cap near 2^64 rounds
      // up as a double, so the comparison comes first.
      std::uint64_t delay =
          d >= cap ? max_delay
                   : std::min(max_delay, static_cast<std::uint64_t>(d));
      if (jitter > 0.0) {
        // The extra ticks saturate at the u64 range instead of wrapping.
        constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
        constexpr double kTwo64 = 18446744073709551616.0;
        const double extra =
            rng.uniform01() * jitter * static_cast<double>(delay);
        if (extra >= kTwo64) return kMax;
        const auto ticks = static_cast<std::uint64_t>(extra);
        delay = ticks > kMax - delay ? kMax : delay + ticks;
      }
      return delay;
    }
  }
  FT_UNREACHABLE();
}

std::string RetryPolicy::spec() const {
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kImmediate:
      return "immediate:" + std::to_string(max_retries);
    case Kind::kFixed:
      return "fixed:" + std::to_string(base_delay) + ":" +
             std::to_string(max_retries);
    case Kind::kBackoff: {
      std::string out = "backoff:" + std::to_string(base_delay) + ":" +
                        std::to_string(max_retries);
      if (jitter > 0.0) {
        out += ':';
        out += std::to_string(jitter);
      }
      return out;
    }
  }
  FT_UNREACHABLE();
}

Result<RetryPolicy> parse_retry_policy(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = text.find(':', start);
    parts.push_back(text.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }

  // A number past its field's range is never wrapped or narrowed: the
  // first such field is named in the error instead of the grammar.
  std::string range_error;
  auto parse_u64 = [&](const std::string& s, const char* field,
                       std::uint64_t max, std::uint64_t& out) {
    if (s.empty()) return false;
    out = 0;
    for (char c : s) {
      if (c < '0' || c > '9') return false;
      const auto digit = static_cast<std::uint64_t>(c - '0');
      if (out > (max - digit) / 10) {
        if (range_error.empty()) {
          range_error = "retry policy field '" + std::string(field) +
                        "' out of range: " + s + " (max " +
                        std::to_string(max) + ")";
        }
        return false;
      }
      out = out * 10 + digit;
    }
    return true;
  };
  auto parse_frac = [&](const std::string& s, double& out) {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    const std::size_t dot = s.find('.');
    std::uint64_t whole = 0;
    std::uint64_t frac = 0;
    if (!parse_u64(s.substr(0, dot), "jitter", kMax, whole)) return false;
    double f = 0.0;
    if (dot != std::string::npos) {
      const std::string tail = s.substr(dot + 1);
      if (!parse_u64(tail, "jitter", kMax, frac)) return false;
      double scale = 1.0;
      for (std::size_t i = 0; i < tail.size(); ++i) scale *= 10.0;
      f = static_cast<double>(frac) / scale;
    }
    out = static_cast<double>(whole) + f;
    return true;
  };
  auto fail = [&](const char* grammar) {
    return Result<RetryPolicy>::error(range_error.empty() ? grammar
                                                          : range_error);
  };

  constexpr std::uint64_t kMaxDelay = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kMaxRetries =
      std::numeric_limits<std::uint32_t>::max();
  // backoff caps its delay at 64·base, which must itself fit.
  constexpr std::uint64_t kMaxBase = kMaxDelay / 64;

  const std::string& kind = parts[0];
  std::uint64_t retries = 8;
  if (kind == "none") {
    if (parts.size() != 1) {
      return Result<RetryPolicy>::error("retry policy 'none' takes no fields");
    }
    return Result<RetryPolicy>(RetryPolicy::none());
  }
  if (kind == "immediate") {
    if (parts.size() > 2 ||
        (parts.size() == 2 &&
         !parse_u64(parts[1], "retries", kMaxRetries, retries))) {
      return fail("expected immediate[:retries]");
    }
    return Result<RetryPolicy>(
        RetryPolicy::immediate(static_cast<std::uint32_t>(retries)));
  }
  if (kind == "fixed") {
    std::uint64_t delay = 0;
    if (parts.size() < 2 || parts.size() > 3 ||
        !parse_u64(parts[1], "delay", kMaxDelay, delay) || delay == 0 ||
        (parts.size() == 3 &&
         !parse_u64(parts[2], "retries", kMaxRetries, retries))) {
      return fail("expected fixed:delay[:retries]");
    }
    return Result<RetryPolicy>(
        RetryPolicy::fixed(delay, static_cast<std::uint32_t>(retries)));
  }
  if (kind == "backoff") {
    std::uint64_t base = 0;
    double jitter = 0.0;
    if (parts.size() < 2 || parts.size() > 4 ||
        !parse_u64(parts[1], "base", kMaxBase, base) || base == 0 ||
        (parts.size() >= 3 &&
         !parse_u64(parts[2], "retries", kMaxRetries, retries)) ||
        (parts.size() == 4 && !parse_frac(parts[3], jitter))) {
      return fail("expected backoff:base[:retries[:jitter]]");
    }
    return Result<RetryPolicy>(
        RetryPolicy::backoff(base, 2.0, 64 * base,
                             static_cast<std::uint32_t>(retries), jitter));
  }
  return Result<RetryPolicy>::error("unknown retry policy kind '" + kind +
                                    "' (none|immediate|fixed|backoff)");
}

}  // namespace ftsched
