#include "util/parse.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string_view>

namespace ftsched {
namespace {

TEST(ParseNonNegative, AcceptsOnlyFiniteNonNegativeDecimals) {
  struct Case {
    std::string_view text;
    std::optional<double> expected;
  };
  const Case cases[] = {
      {"", std::nullopt},     {"-1", std::nullopt},  {"0.5x", std::nullopt},
      {"inf", std::nullopt},  {"nan", std::nullopt}, {"1e999", std::nullopt},
      {"0x1", std::nullopt},  {".5", 0.5},           {"2", 2.0},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(parse_non_negative(c.text), c.expected) << '"' << c.text << '"';
  }
}

}  // namespace
}  // namespace ftsched
