#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace ftsched {
namespace {

std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

struct Case {
  std::string name;
  std::string text;
  /// Empty when the text must parse; else a substring of the error.
  std::string error;
};

// Each reader this one replaced accepted some of the rejected texts below,
// or rejected some of the accepted ones.
TEST(Json, GrammarTable) {
  const std::vector<Case> cases = {
      {"leading zero", "007", "line 1, column 1: leading zero in number"},
      {"non-finite number", "1e999", "number 1e999 out of range"},
      {"duplicate key", R"({"a":1,"a":2})", "column 8: duplicate key \"a\""},
      {"lone high surrogate", R"("\ud800")", "lone high surrogate"},
      {"high surrogate then non-surrogate", R"("\ud800\u0041")",
       "lone high surrogate"},
      {"lone low surrogate", R"("\udc00")", "lone low surrogate"},
      {"raw tab in string", "\"a\tb\"",
       "column 3: raw control character in string"},
      {"raw newline in string", "\"a\nb\"", "raw control character"},
      {"trailing garbage", R"({"req":1}x)", "column 10: trailing content"},
      {"garbage after a number", R"({"req":12x})", "expected ',' or '}'"},
      {"plus sign", "+1", "expected value"},
      {"bare fraction", "1.", "expected digit after '.'"},
      {"empty input", "", "unexpected end of input"},
      {"unterminated string", "\"abc", "unterminated string"},
      {"bad escape", R"("\x")", "bad escape"},
      {"bad literal", "tru", "bad literal"},
      {"spaces around colons", R"({ "req" : 1 , "t" : 2 })", ""},
      {"surrogate pair", R"("\ud83d\ude00")", ""},
      {"fraction and exponent", "-0.5e-3", ""},
      {"literals", "[true,false,null]", ""},
      {"empty containers", R"({"a":[],"b":{}})", ""},
      {"64 deep", nested_arrays(kJsonMaxDepth), ""},
      {"65 deep", nested_arrays(kJsonMaxDepth + 1),
       "line 1, column 65: nesting deeper than 64"},
      {"65 deep objects",
       std::string(kJsonMaxDepth, '[') + R"({"a":1})" +
           std::string(kJsonMaxDepth, ']'),
       "nesting deeper than 64"},
      {"a million deep", nested_arrays(1'000'000), "nesting deeper than 64"},
      {"error on a later line", "{\n  \"a\": 01\n}",
       "line 2, column 8: leading zero in number"},
  };
  for (const Case& c : cases) {
    const Result<Json> parsed = parse_json(c.text);
    if (c.error.empty()) {
      EXPECT_TRUE(parsed.ok()) << c.name << ": " << parsed.message();
    } else {
      ASSERT_FALSE(parsed.ok()) << c.name;
      EXPECT_NE(parsed.message().find(c.error), std::string::npos)
          << c.name << ": " << parsed.message();
    }
  }
}

TEST(Json, DecodesEscapesToUtf8) {
  const Result<Json> parsed =
      parse_json(R"("\u0041\u00e9\u20ac\ud83d\ude00\n\/")");
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  EXPECT_EQ(parsed.value().str,
            "A\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80\n/");
}

TEST(Json, ObjectsKeepOrderAndRejectDuplicatesAtAnySize) {
  constexpr int kKeys = 10'000;
  std::string text = "{";
  for (int i = 0; i < kKeys; ++i) {
    text += (i == 0 ? "\"k" : ",\"k") + std::to_string(i) + "\":" +
            std::to_string(i);
  }
  const Result<Json> parsed = parse_json(text + "}");
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  ASSERT_EQ(parsed.value().object.size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(parsed.value().object.back().first, "k9999");
  ASSERT_NE(parsed.value().find("k1234"), nullptr);
  EXPECT_EQ(parsed.value().find("k1234")->as_u64(), 1234u);

  // The repeat is found past the small-object scan, and also when it is
  // spelled with an escape.
  EXPECT_FALSE(parse_json(text + ",\"k0\":0}").ok());
  EXPECT_FALSE(parse_json(text + ",\"\\u006b5\":0}").ok());
  EXPECT_FALSE(parse_json(R"({"k1":1,"\u006b1":2})").ok());
}

TEST(Json, AsU64IsExact) {
  const auto as_u64 = [](const std::string& text) {
    const Result<Json> parsed = parse_json(text);
    EXPECT_TRUE(parsed.ok()) << text << ": " << parsed.message();
    return parsed.ok() ? parsed.value().as_u64() : std::nullopt;
  };
  EXPECT_EQ(as_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(as_u64("18446744073709551616"), std::nullopt);
  EXPECT_EQ(as_u64("9007199254740993"), 9007199254740993u);
  EXPECT_EQ(as_u64("0"), 0u);
  EXPECT_EQ(as_u64("-1"), std::nullopt);
  EXPECT_EQ(as_u64("-0"), std::nullopt);
  EXPECT_EQ(as_u64("1.5"), std::nullopt);
  EXPECT_EQ(as_u64("1.0"), std::nullopt);
  EXPECT_EQ(as_u64("1e3"), std::nullopt);
  EXPECT_EQ(as_u64("\"12\""), std::nullopt);
  EXPECT_EQ(as_u64("true"), std::nullopt);
}

TEST(Json, EscapeRoundTripsAsciiStrings) {
  Xoshiro256ss rng(2006);
  for (int round = 0; round < 2000; ++round) {
    std::string s(rng.below(40), '\0');
    for (char& c : s) c = static_cast<char>(rng.below(0x80));
    const Result<Json> parsed =
        parse_json(std::string("\"").append(json_escape(s)).append("\""));
    ASSERT_TRUE(parsed.ok()) << parsed.message();
    ASSERT_EQ(parsed.value().type, Json::Type::kString);
    ASSERT_EQ(parsed.value().str, s);
  }
}

}  // namespace
}  // namespace ftsched
