// Versioned, checksummed binary serialization for expensive pipeline
// intermediates: trained DDPG actors/critics (Mlp), PAC models, and barrier
// certificates.
//
// Blob layout (all integers little-endian, doubles as IEEE-754 bit
// patterns -- round-trips are bit-exact):
//
//   magic   "SCSB"              4 bytes
//   version u32                 kStoreFormatVersion
//   kind    str                 payload type tag ("rl", "pac", ...)
//   key     u64                 content-address (stage cache key)
//   bench   str                 benchmark name (provenance only)
//   size    u64                 payload byte count
//   payload bytes
//   check   u64                 FNV-1a over every preceding byte
//
// Any structural problem (short buffer, bad magic, wrong version, checksum
// mismatch) raises StoreError; the stage cache converts that into a miss
// and recomputes -- a corrupt blob can never poison a run.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "barrier/independent_check.hpp"
#include "barrier/synthesis.hpp"
#include "nn/mlp.hpp"
#include "pac/pac_fit.hpp"
#include "poly/polynomial.hpp"
#include "rl/ddpg.hpp"

namespace scs {

/// Bump whenever any serialized layout below changes; the version is part
/// of every cache key, so old blobs become unreachable instead of misread.
/// A layout change confined to stages that a stage revision re-keys
/// (store/stage_cache.cpp) needs no bump: their old blobs are unreachable
/// already, and every other stage keeps its entries.
inline constexpr std::uint32_t kStoreFormatVersion = 2;

/// Malformed / truncated / version-mismatched / corrupt blob.
class StoreError : public std::runtime_error {
 public:
  explicit StoreError(const std::string& what) : std::runtime_error(what) {}
};

class BinaryWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s);
  void raw(const void* data, std::size_t len);

  const std::vector<unsigned char>& bytes() const { return buf_; }
  std::vector<unsigned char> take() { return std::move(buf_); }

 private:
  std::vector<unsigned char> buf_;
};

class BinaryReader {
 public:
  BinaryReader(const unsigned char* data, std::size_t len)
      : data_(data), len_(len) {}
  explicit BinaryReader(const std::vector<unsigned char>& bytes)
      : BinaryReader(bytes.data(), bytes.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean() { return u8() != 0; }
  std::string str();

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return len_ - pos_; }
  bool at_end() const { return pos_ == len_; }

 private:
  void need(std::size_t n) const;

  const unsigned char* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

// ---- Typed serializers. Each read_* validates shape invariants and throws
// StoreError on anything inconsistent.

void write_vec(BinaryWriter& w, const Vec& v);
Vec read_vec(BinaryReader& r);

void write_mlp(BinaryWriter& w, const Mlp& net);
Mlp read_mlp(BinaryReader& r);

void write_polynomial(BinaryWriter& w, const Polynomial& p);
Polynomial read_polynomial(BinaryReader& r);

void write_pac_model(BinaryWriter& w, const PacModel& m);
PacModel read_pac_model(BinaryReader& r);

void write_pac_result(BinaryWriter& w, const PacResult& res);
PacResult read_pac_result(BinaryReader& r);

void write_eval_result(BinaryWriter& w, const EvalResult& e);
EvalResult read_eval_result(BinaryReader& r);

void write_barrier_result(BinaryWriter& w, const BarrierResult& b);
BarrierResult read_barrier_result(BinaryReader& r);

void write_validation_report(BinaryWriter& w, const ValidationReport& v);
ValidationReport read_validation_report(BinaryReader& r);

// ---- Blob framing.

struct BlobHeader {
  std::uint32_t format_version = 0;
  std::string kind;
  std::uint64_t key = 0;
  std::string benchmark;
  std::uint64_t payload_size = 0;
};

/// Frame a payload: header + payload + trailing FNV-1a checksum.
std::vector<unsigned char> encode_blob(const std::string& kind,
                                       std::uint64_t key,
                                       const std::string& benchmark,
                                       const std::vector<unsigned char>& payload);

/// Parse and validate only the header (cheap; used by ls/info). Throws
/// StoreError on malformed input.
BlobHeader decode_blob_header(const std::vector<unsigned char>& blob);

/// Full decode: header + checksum verification; returns the payload.
/// Throws StoreError on any mismatch (including a flipped payload byte).
std::vector<unsigned char> decode_blob(const std::vector<unsigned char>& blob,
                                       BlobHeader* header = nullptr);

}  // namespace scs
