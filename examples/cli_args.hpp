// Strict parsers for the numeric arguments of synthesize_cli, fuzz_cli and
// store_cli. Each takes the whole string or rejects it: no leading sign or
// space, no trailing text, no silent wrap or clamp.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

namespace scs {

/// The whole of `text` as a decimal integer in [lo, hi].
inline bool parse_uint(const char* text, std::uint64_t lo, std::uint64_t hi,
                       std::uint64_t& out) {
  if (*text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || v < lo || v > hi) return false;
  out = v;
  return true;
}

/// `parse_uint` into an int; 0 <= lo <= hi.
inline bool parse_int(const char* text, int lo, int hi, int& out) {
  std::uint64_t v = 0;
  if (!parse_uint(text, static_cast<std::uint64_t>(lo),
                  static_cast<std::uint64_t>(hi), v))
    return false;
  out = static_cast<int>(v);
  return true;
}

/// The whole of `text` as a finite, positive number.
inline bool parse_positive(const char* text, double& out) {
  if ((*text < '0' || *text > '9') && *text != '.') return false;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v <= 0.0)
    return false;
  out = v;
  return true;
}

/// A comma-separated list of state dimensions, each in 1..12. A trailing
/// comma is checked up front: getline yields no empty last part for it.
inline bool parse_dims(const std::string& text, std::vector<std::size_t>& out) {
  out.clear();
  if (text.empty() || text.back() == ',') return false;
  std::stringstream ss(text);
  std::string part;
  while (std::getline(ss, part, ',')) {
    std::uint64_t v = 0;
    if (!parse_uint(part.c_str(), 1, 12, v)) return false;
    out.push_back(static_cast<std::size_t>(v));
  }
  return !out.empty();
}

}  // namespace scs
