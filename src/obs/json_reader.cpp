#include "obs/json_reader.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace scs {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const JsonValue* found = nullptr;
  for (const auto& [k, v] : members)
    if (k == key) found = &v;
  return found;
}

std::int64_t JsonValue::int_or(std::int64_t fallback) const {
  if (!is_number() || !std::isfinite(number)) return fallback;
  return static_cast<std::int64_t>(number);
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.type = Type::kBool;
  v.boolean = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.type = Type::kNumber;
  v.number = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.type = Type::kString;
  v.string = std::move(s);
  return v;
}

namespace {

/// Recursive-descent parser building the document as it goes;
/// json_parse_valid validates through it too.
struct Reader {
  std::string_view text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& why) const {
    throw JsonParseError(why, pos);
  }

  void skip_ws() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos;
      else
        break;
    }
  }

  bool eof() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  void literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) fail("bad literal");
    pos += lit.size();
  }

  /// Append `cp` to `out` as UTF-8.
  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::uint32_t hex4() {
    std::uint32_t v = 0;
    for (int k = 0; k < 4; ++k, ++pos) {
      if (eof()) fail("bad \\u escape");
      const char c = text[pos];
      v <<= 4;
      if (c >= '0' && c <= '9')
        v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else
        fail("bad \\u escape");
    }
    return v;
  }

  std::string string() {
    if (eof() || peek() != '"') fail("expected string");
    ++pos;
    std::string out;
    while (!eof()) {
      const unsigned char c = text[pos];
      if (c == '"') {
        ++pos;
        return out;
      }
      if (c < 0x20) fail("raw control character in string");
      if (c == '\\') {
        ++pos;
        if (eof()) fail("truncated escape");
        const char e = text[pos];
        switch (e) {
          case '"': out += '"'; ++pos; break;
          case '\\': out += '\\'; ++pos; break;
          case '/': out += '/'; ++pos; break;
          case 'b': out += '\b'; ++pos; break;
          case 'f': out += '\f'; ++pos; break;
          case 'n': out += '\n'; ++pos; break;
          case 'r': out += '\r'; ++pos; break;
          case 't': out += '\t'; ++pos; break;
          case 'u': {
            ++pos;
            std::uint32_t cp = hex4();
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: the low half must follow immediately.
              if (text.substr(pos, 2) != "\\u") fail("lone high surrogate");
              pos += 2;
              const std::uint32_t lo = hex4();
              if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              fail("lone low surrogate");
            }
            append_utf8(out, cp);
            break;
          }
          default:
            fail("bad escape character");
        }
      } else {
        out += static_cast<char>(c);
        ++pos;
      }
    }
    fail("unterminated string");
  }

  void digits() {
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
      fail("expected digit");
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos;
  }

  double number() {
    const std::size_t start = pos;
    if (!eof() && peek() == '-') ++pos;
    if (eof()) fail("truncated number");
    if (peek() == '0')
      ++pos;
    else
      digits();
    if (!eof() && peek() == '.') {
      ++pos;
      digits();
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos;
      digits();
    }
    // The slice passed the strict grammar above, so strtod consumes exactly
    // this range; out-of-range magnitudes saturate to +-inf, which is still
    // an honest reading of the text.
    const std::string slice(text.substr(start, pos - start));
    return std::strtod(slice.c_str(), nullptr);
  }

  JsonValue value(int depth) {
    if (depth > 256) fail("nesting too deep");
    skip_ws();
    if (eof()) fail("expected value");
    JsonValue v;
    const char c = peek();
    if (c == '{') {
      v.type = JsonValue::Type::kObject;
      object(v, depth);
    } else if (c == '[') {
      v.type = JsonValue::Type::kArray;
      array(v, depth);
    } else if (c == '"') {
      v.type = JsonValue::Type::kString;
      v.string = string();
    } else if (c == 't') {
      literal("true");
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
    } else if (c == 'f') {
      literal("false");
      v.type = JsonValue::Type::kBool;
      v.boolean = false;
    } else if (c == 'n') {
      literal("null");
    } else if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      v.type = JsonValue::Type::kNumber;
      v.number = number();
    } else {
      fail("unexpected character");
    }
    return v;
  }

  void object(JsonValue& v, int depth) {
    ++pos;  // '{'
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos;
      return;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      if (eof() || peek() != ':') fail("expected ':'");
      ++pos;
      v.members.emplace_back(std::move(key), value(depth + 1));
      skip_ws();
      if (eof()) fail("unterminated object");
      if (peek() == ',') {
        ++pos;
        continue;
      }
      if (peek() == '}') {
        ++pos;
        return;
      }
      fail("expected ',' or '}'");
    }
  }

  void array(JsonValue& v, int depth) {
    ++pos;  // '['
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos;
      return;
    }
    for (;;) {
      v.items.push_back(value(depth + 1));
      skip_ws();
      if (eof()) fail("unterminated array");
      if (peek() == ',') {
        ++pos;
        continue;
      }
      if (peek() == ']') {
        ++pos;
        return;
      }
      fail("expected ',' or ']'");
    }
  }
};

}  // namespace

JsonValue json_parse(std::string_view text) {
  Reader r{text};
  JsonValue v = r.value(0);
  r.skip_ws();
  if (!r.eof()) r.fail("trailing garbage");
  return v;
}

bool json_try_parse(std::string_view text, JsonValue* out, std::string* error) {
  try {
    JsonValue v = json_parse(text);
    if (out != nullptr) *out = std::move(v);
    return true;
  } catch (const JsonParseError& e) {
    if (error != nullptr) *error = e.what();
    if (out != nullptr) *out = JsonValue{};
    return false;
  }
}

}  // namespace scs
