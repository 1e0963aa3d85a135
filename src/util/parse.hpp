// Strict number parsing for text inputs.
//
// std::atoi, std::atof, std::strtoull and `istream >> unsigned` all accept
// things a count, a seed, an id or a rate never is: `atoi("--flag")` and
// `atof("abc")` are 0, `atol("2x")` is 2, and strtoull reads "-3" as
// 2^64 - 3. Readers and command lines use these instead: the whole text must
// be the number, with no sign, no blanks and no trailing text.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>

namespace ftsched {

/// A plain run of decimal digits that fits in 64 bits, and nothing else.
inline std::optional<std::uint64_t> parse_unsigned(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// A finite, non-negative decimal number ("2", "0.5", ".5", "1e-3") and
/// nothing else: no sign, hex, "inf", "nan", trailing text, or a value too
/// large or too small for a double.
inline std::optional<double> parse_non_negative(std::string_view text) {
  if (text.empty() || !((text[0] >= '0' && text[0] <= '9') || text[0] == '.')) {
    return std::nullopt;
  }
  double value = 0.0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace ftsched
