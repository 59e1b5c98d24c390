// Minimal JSON emission and validation shared by every component that
// writes JSON (reports, trace export, metrics dump, benchmark outputs).
//
// Before this existed each emitter concatenated raw strings, so a benchmark
// name or failure message containing a quote, backslash, or control
// character produced unparseable output. All emission now funnels through
// JsonWriter (or json_escape directly), and json_parse_valid gives tests
// and CI smoke jobs a one-call way to assert that an emitted blob actually
// parses.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace scs {

/// Escape `s` for inclusion inside a JSON string literal (no surrounding
/// quotes): ", \, and control characters below 0x20 become escape
/// sequences; everything else passes through byte-for-byte.
std::string json_escape(std::string_view s);

/// Format a double as a JSON number: finite values round-trip via
/// max_digits10; NaN/Inf (not representable in JSON) become null and bump
/// the process-wide json_nonfinite_dropped() counter.
/// `precision` <= 0 means shortest round-trip.
std::string json_number(double v, int precision = 0);

/// Process-wide count of non-finite doubles that json_number turned into
/// null. A nonzero value in a ledger record flags that some emitted metric
/// was NaN/Inf at the source. Kept as a plain atomic here (not a
/// MetricsRegistry counter) so the registry's own serialization can drop a
/// non-finite value without re-entering its lock.
std::uint64_t json_nonfinite_dropped();

/// Reset the dropped-value counter (tests only).
void json_nonfinite_dropped_reset_for_tests();

/// Streaming JSON builder with automatic comma placement. Usage:
///
///   JsonWriter w;
///   w.begin_object();
///   w.key("name").value(name);          // value is escaped
///   w.key("items").begin_array();
///   w.value(1).value(2);
///   w.end_array();
///   w.end_object();
///   std::string blob = w.str();
///
/// The writer does not validate call order beyond what the comma logic
/// needs; emitting a key outside an object is a programming error.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit an object key (escaped) followed by ':'.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);  // escaped string value
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(double v, int precision = 0);
  JsonWriter& null();

  /// Splice a pre-serialized JSON value (e.g. another writer's str()).
  JsonWriter& raw(std::string_view json);

  const std::string& str() const { return out_; }

 private:
  void before_value();

  std::string out_;
  // One frame per open container: true once the first element was written
  // (so the next element needs a comma). `expect_value_` is set between a
  // key and its value.
  std::vector<bool> has_elem_;
  bool expect_value_ = false;
};

/// Strict validating parse of a complete JSON document (single value plus
/// optional surrounding whitespace): json_try_parse (obs/json_reader.hpp)
/// without an output document. Returns true when `text` is valid JSON; on
/// failure `error` (if non-null) gets a short reason with the byte offset.
bool json_parse_valid(std::string_view text, std::string* error = nullptr);

}  // namespace scs
