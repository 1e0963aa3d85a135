// Strict unsigned-integer parsing for text inputs.
//
// std::atoi, std::strtoull and `istream >> unsigned` all accept things a
// count, a seed or an id never is: `atoi("--flag")` is 0, and the other two
// read "-3" as 2^64 - 3. Readers and command lines use parse_unsigned
// instead: a plain run of decimal digits that fits in 64 bits, and nothing
// else — no sign, no blanks, no trailing text.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>

namespace ftsched {

inline std::optional<std::uint64_t> parse_unsigned(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace ftsched
