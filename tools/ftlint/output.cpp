#include "ftlint/output.hpp"

#include <sstream>

#include "util/json.hpp"

namespace ftlint {

using ftsched::json_escape;

std::string to_text(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.file << ':' << f.line << ": [" << f.rule << "] " << f.message
        << '\n';
  }
  return out.str();
}

std::string to_json(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "{\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i == 0 ? "" : ",") << "\n    {\"file\": \"" << json_escape(f.file)
        << "\", \"line\": " << f.line << ", \"rule\": \""
        << json_escape(f.rule) << "\", \"message\": \""
        << json_escape(f.message) << "\"}";
  }
  if (!findings.empty()) out << "\n  ";
  out << "],\n  \"count\": " << findings.size() << "\n}\n";
  return out.str();
}

std::string to_sarif(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"ftlint\",\n"
      << "          \"informationUri\": "
         "\"https://example.invalid/ftsched/ftlint\",\n"
      << "          \"rules\": [";
  const auto& catalog = rule_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\n            {\"id\": \""
        << json_escape(catalog[i].name)
        << "\", \"shortDescription\": {\"text\": \""
        << json_escape(catalog[i].summary) << "\"}}";
  }
  out << "\n          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i == 0 ? "" : ",") << "\n        {\n"
        << "          \"ruleId\": \"" << json_escape(f.rule) << "\",\n"
        << "          \"level\": \"error\",\n"
        << "          \"message\": {\"text\": \"" << json_escape(f.message)
        << "\"},\n"
        << "          \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \""
        << json_escape(f.file) << "\"}, \"region\": {\"startLine\": " << f.line
        << "}}}]\n"
        << "        }";
  }
  if (!findings.empty()) out << "\n      ";
  out << "]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

}  // namespace ftlint
