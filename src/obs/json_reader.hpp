// Strict JSON value parser -- the read half of the obs JSON stack and the
// repo's one JSON parser: a small document model (JsonValue) and a strict
// recursive-descent parser. json_parse_valid (obs/json_writer.hpp) is
// json_try_parse without an output document. It backs the run-ledger
// reader (src/obs/ledger), the baseline comparator (src/obs/baseline), and
// report_cli's ingestion of BENCH_*.json / google-benchmark output.
//
// Strictness: no comments, no trailing commas, no bare NaN/Infinity
// tokens, raw control characters rejected inside strings, one value per
// document, nesting capped. \uXXXX escapes are decoded to UTF-8
// (surrogate pairs included); a lone surrogate is an error rather than
// silently mangled data.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace scs {

/// Parse failure: `what()` carries a short reason plus the byte offset.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& why, std::size_t offset)
      : std::runtime_error(why + " at offset " + std::to_string(offset)),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// One parsed JSON value. Object members keep insertion order (ledger and
/// baseline files are written with deliberate key order; round-trips and
/// error messages stay readable).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;                            // arrays
  std::vector<std::pair<std::string, JsonValue>> members;  // objects

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// Member lookup (objects only). Last occurrence wins when a document
  /// carries duplicate keys, matching what a streaming overwrite would do.
  /// Returns nullptr when absent or when this value is not an object.
  const JsonValue* find(std::string_view key) const;

  // Leaf accessors with defaults (no throwing on shape mismatch -- ledger
  // consumers degrade per record, they do not abort a whole file).
  double number_or(double fallback) const {
    return is_number() ? number : fallback;
  }
  bool bool_or(bool fallback) const { return is_bool() ? boolean : fallback; }
  const std::string& string_or(const std::string& fallback) const {
    return is_string() ? string : fallback;
  }
  /// Number coerced to int64 (truncating); `fallback` when not a number.
  std::int64_t int_or(std::int64_t fallback) const;

  // Construction helpers (tests, synthetic baselines).
  static JsonValue make_null() { return JsonValue{}; }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string s);
};

/// Parse a complete JSON document (single value + surrounding whitespace).
/// Throws JsonParseError on any deviation from the grammar.
JsonValue json_parse(std::string_view text);

/// Non-throwing variant: returns false and fills `error` (if non-null)
/// instead. `out` is left default-constructed on failure.
bool json_try_parse(std::string_view text, JsonValue* out,
                    std::string* error = nullptr);

}  // namespace scs
