#include "obs/json_writer.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "obs/json_reader.hpp"

namespace scs {

namespace {
// See json_nonfinite_dropped() in the header for why this is a file-local
// atomic rather than a MetricsRegistry counter.
std::atomic<std::uint64_t> g_nonfinite_dropped{0};
}  // namespace

std::uint64_t json_nonfinite_dropped() {
  return g_nonfinite_dropped.load(std::memory_order_relaxed);
}

void json_nonfinite_dropped_reset_for_tests() {
  g_nonfinite_dropped.store(0, std::memory_order_relaxed);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string json_number(double v, int precision) {
  if (!std::isfinite(v)) {
    g_nonfinite_dropped.fetch_add(1, std::memory_order_relaxed);
    return "null";
  }
  std::ostringstream os;
  if (precision > 0)
    os.precision(precision);
  else
    os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

void JsonWriter::before_value() {
  if (expect_value_) {
    expect_value_ = false;
    return;
  }
  if (!has_elem_.empty()) {
    if (has_elem_.back()) out_ += ',';
    has_elem_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  has_elem_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  has_elem_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  has_elem_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  has_elem_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (!has_elem_.empty()) {
    if (has_elem_.back()) out_ += ',';
    has_elem_.back() = true;
  }
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
  expect_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  before_value();
  out_ += '"';
  out_ += json_escape(s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  before_value();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(double v, int precision) {
  before_value();
  out_ += json_number(v, precision);
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  before_value();
  out_ += json;
  return *this;
}

bool json_parse_valid(std::string_view text, std::string* error) {
  return json_try_parse(text, nullptr, error);
}

}  // namespace scs
