#include "util/json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <unordered_set>

namespace ftsched {

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::size_t first_line)
      : text_(text), first_line_(first_line) {}

  bool parse(Json& out, std::string& error) {
    skip_ws();
    if (!parse_value(out, error)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail(error, "trailing content");
    return true;
  }

 private:
  std::string_view text_;
  std::size_t first_line_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }
  /// Records `what` at the current position as "line L, column C: what"
  /// (1-based; columns count bytes).
  bool fail(std::string& error, const std::string& what) {
    const std::size_t at = std::min(pos_, text_.size());
    const std::string_view before = text_.substr(0, at);
    const std::size_t line_start = before.rfind('\n');
    const std::size_t line =
        first_line_ + static_cast<std::size_t>(
                          std::count(before.begin(), before.end(), '\n'));
    const std::size_t column =
        line_start == std::string_view::npos ? at + 1 : at - line_start;
    error = "line " + std::to_string(line) + ", column " +
            std::to_string(column) + ": " + what;
    return false;
  }

  bool parse_value(Json& out, std::string& error) {
    if (pos_ >= text_.size()) return fail(error, "unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kJsonMaxDepth) {
          return fail(error, "nesting deeper than " +
                                 std::to_string(kJsonMaxDepth));
        }
        ++depth_;
        const bool ok = c == '{' ? parse_object(out, error)
                                 : parse_array(out, error);
        --depth_;
        return ok;
      }
      case '"':
        out.type = Json::Type::kString;
        return parse_string(out.str, error);
      case 't':
        return parse_literal("true", out, error);
      case 'f':
        return parse_literal("false", out, error);
      case 'n':
        return parse_literal("null", out, error);
      default:
        return parse_number(out, error);
    }
  }

  bool parse_literal(std::string_view word, Json& out, std::string& error) {
    if (text_.compare(pos_, word.size(), word) != 0) {
      return fail(error, "bad literal");
    }
    pos_ += word.size();
    out.type = word == "null" ? Json::Type::kNull : Json::Type::kBool;
    out.boolean = word == "true";
    return true;
  }

  bool parse_object(Json& out, std::string& error) {
    out.type = Json::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    std::unordered_set<std::string> keys;  // duplicates, in O(1) each
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail(error, "expected object key");
      }
      const std::size_t key_at = pos_;
      std::string key;
      if (!parse_string(key, error)) return false;
      if (!keys.insert(key).second) {
        pos_ = key_at;
        return fail(error, "duplicate key \"" + json_escape(key) + "\"");
      }
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail(error, "expected ':'");
      }
      ++pos_;
      skip_ws();
      Json value;
      if (!parse_value(value, error)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail(error, "unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail(error, "expected ',' or '}'");
    }
  }

  bool parse_array(Json& out, std::string& error) {
    out.type = Json::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      Json value;
      if (!parse_value(value, error)) return false;
      out.array.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail(error, "unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail(error, "expected ',' or ']'");
    }
  }

  /// Reads the four hex digits of a \u escape (the "\u" already consumed).
  bool parse_hex4(unsigned& code, std::string& error) {
    if (pos_ + 4 > text_.size()) return fail(error, "bad \\u escape");
    code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else return fail(error, "bad \\u escape");
    }
    return true;
  }

  /// Decodes the rest of a \u escape — with its low half when `code` is a
  /// high surrogate — and appends the code point as UTF-8. Errors are
  /// located at the escape's backslash.
  bool parse_unicode(std::string& out, std::string& error) {
    const std::size_t escape_at = pos_ - 2;
    unsigned code = 0;
    if (!parse_hex4(code, error)) return false;
    if (code >= 0xDC00 && code <= 0xDFFF) {
      pos_ = escape_at;
      return fail(error, "lone low surrogate in \\u escape");
    }
    if (code >= 0xD800 && code <= 0xDBFF) {
      unsigned low = 0;
      if (text_.compare(pos_, 2, "\\u") != 0) {
        pos_ = escape_at;
        return fail(error, "lone high surrogate in \\u escape");
      }
      pos_ += 2;
      if (!parse_hex4(low, error)) return false;
      if (low < 0xDC00 || low > 0xDFFF) {
        pos_ = escape_at;
        return fail(error, "lone high surrogate in \\u escape");
      }
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    // UTF-8: a lead byte carrying the top bits, then `tail` continuation
    // bytes of 6 bits each.
    const int tail =
        code < 0x80 ? 0 : code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
    constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    out += static_cast<char>(kLead[tail] | (code >> (6 * tail)));
    for (int i = tail - 1; i >= 0; --i) {
      out += static_cast<char>(0x80 | ((code >> (6 * i)) & 0x3F));
    }
    return true;
  }

  bool parse_string(std::string& out, std::string& error) {
    ++pos_;  // opening '"'
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail(error, "raw control character in string");
      }
      ++pos_;
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u':
          if (!parse_unicode(out, error)) return false;
          break;
        default:
          return fail(error, "bad escape");
      }
    }
    return fail(error, "unterminated string");
  }

  bool at_digit() const {
    return pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]));
  }
  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }
  /// Consumes a run of digits; false when there is none.
  bool digits() {
    if (!at_digit()) return false;
    while (at_digit()) ++pos_;
    return true;
  }

  /// number = [ "-" ] ( "0" / 1-9 *DIGIT ) [ "." 1*DIGIT ]
  ///          [ ( "e" / "E" ) [ "+" / "-" ] 1*DIGIT ]
  bool parse_number(Json& out, std::string& error) {
    const std::size_t start = pos_;
    if (at('-')) ++pos_;
    if (!at_digit()) {
      pos_ = start;
      return fail(error, "expected value");
    }
    // Every error below is located at the number's first character.
    const auto bad = [&](const std::string& what) {
      pos_ = start;
      return fail(error, what);
    };
    if (at('0')) {
      ++pos_;
      if (at_digit()) return bad("leading zero in number");
    } else {
      digits();
    }
    if (at('.')) {
      ++pos_;
      if (!digits()) return bad("expected digit after '.' in number");
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (!digits()) return bad("expected exponent digits in number");
    }
    out.str = std::string(text_.substr(start, pos_ - start));
    out.number = std::strtod(out.str.c_str(), nullptr);
    if (!std::isfinite(out.number)) {
      return bad("number " + out.str + " out of range");
    }
    out.type = Json::Type::kNumber;
    return true;
  }
};

}  // namespace

Result<Json> parse_json(std::string_view text, std::size_t first_line) {
  Json value;
  std::string error;
  if (!Parser(text, first_line).parse(value, error)) {
    return Result<Json>::error(std::move(error));
  }
  return value;
}

}  // namespace ftsched
