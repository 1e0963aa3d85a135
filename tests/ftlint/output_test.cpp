// The machine formats must be valid JSON documents (RFC 8259, checked with
// the same in-repo validator the obs exporters use) and carry the SARIF
// 2.1.0 required fields CI's code-scanning upload expects.
#include "ftlint/output.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/json.hpp"

namespace ftlint {
namespace {

std::vector<Finding> sample_findings() {
  return {
      {"src/core/a.cpp", 12, "no-raw-io", "message with \"quotes\" and \\"},
      {"src/util/b.hpp", 3, "layering",
       "newline\nand tab\tand control \x01 chars"},
  };
}

TEST(Output, TextOneLinePerFinding) {
  const std::string text = to_text(sample_findings());
  EXPECT_NE(text.find("src/core/a.cpp:12: [no-raw-io] "), std::string::npos);
  EXPECT_NE(text.find("src/util/b.hpp:3: [layering] "), std::string::npos);
}

TEST(Output, JsonEscaping) {
  EXPECT_EQ(ftsched::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(ftsched::json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Output, JsonIsValidAndComplete) {
  const std::string doc = to_json(sample_findings());
  EXPECT_EQ(ftsched::parse_json(doc).message(), "") << doc;
  EXPECT_NE(doc.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(doc.find("\"rule\": \"layering\""), std::string::npos);
  EXPECT_EQ(ftsched::parse_json(to_json({})).message(), "");
}

TEST(Output, SarifIsValidJsonWithRequiredFields) {
  const std::string doc = to_sarif(sample_findings());
  EXPECT_EQ(ftsched::parse_json(doc).message(), "") << doc;
  EXPECT_NE(doc.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(doc.find("\"ruleId\": \"no-raw-io\""), std::string::npos);
  EXPECT_NE(doc.find("\"startLine\": 12"), std::string::npos);
  EXPECT_NE(doc.find("\"artifactLocation\""), std::string::npos);
  // The full rule catalog rides along as tool.driver.rules.
  for (const RuleInfo& rule : rule_catalog()) {
    EXPECT_NE(doc.find("\"id\": \"" + std::string(rule.name) + "\""),
              std::string::npos)
        << rule.name;
  }
}

TEST(Output, SarifEmptyRunIsStillValid) {
  const std::string doc = to_sarif({});
  EXPECT_EQ(ftsched::parse_json(doc).message(), "") << doc;
  EXPECT_NE(doc.find("\"results\": []"), std::string::npos);
}

}  // namespace
}  // namespace ftlint
