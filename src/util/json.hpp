// One strict JSON reader and the JSON string escaper, shared by every
// writer and reader in the repository.
//
// parse_json is a recursive-descent parser for exactly one RFC 8259 value,
// with the rules the artifacts here rely on made explicit:
//   * numbers follow the RFC grammar (no leading zeros, no bare '.', no '+')
//     and must be finite doubles: 1e999 is an error, not infinity;
//   * strings may not hold raw control characters; \u escapes decode to
//     UTF-8, surrogate pairs included, and a lone surrogate is an error;
//   * an object may not repeat a key;
//   * arrays and objects nest at most kJsonMaxDepth deep, so hostile input
//     cannot exhaust the stack;
//   * nothing but whitespace may follow the value.
// Errors read "line L, column C: what" (1-based, columns count bytes).
// Objects keep insertion order so reports follow the producer's ordering,
// and numbers keep their token so integers read back exactly (as_u64).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/parse.hpp"
#include "util/result.hpp"

namespace ftsched {

/// Deepest array/object nesting parse_json accepts. Every artifact ftreport
/// reads nests at most 5 deep, and ftlint's SARIF log 9.
inline constexpr std::size_t kJsonMaxDepth = 64;

/// One parsed JSON value.
struct Json {
  enum class Type : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  /// A string's decoded contents, or a number's token as written.
  std::string str;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  /// The member named `key`, or null when absent or not an object.
  const Json* find(std::string_view key) const {
    if (type != Type::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  double num_or(double fallback) const {
    return type == Type::kNumber ? number : fallback;
  }
  /// The exact value of a number written as a plain run of digits that
  /// fits 64 bits; nullopt for anything else (a sign, fraction or
  /// exponent, or a value that is not a number).
  std::optional<std::uint64_t> as_u64() const {
    if (type != Type::kNumber) return std::nullopt;
    return parse_unsigned(str);
  }
};

/// Parses `text` as exactly one JSON value. `first_line` numbers the text's
/// first line in error locations (a JSON-lines reader passes the file line
/// it parses).
Result<Json> parse_json(std::string_view text, std::size_t first_line = 1);

/// Escapes `text` for inclusion inside a JSON string literal: quotes,
/// backslashes and control characters; everything else passes through.
inline std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += kHex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

}  // namespace ftsched
