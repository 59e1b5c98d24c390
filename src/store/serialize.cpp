#include "store/serialize.hpp"

#include <cstring>

#include "util/hash.hpp"

namespace scs {

namespace {

constexpr unsigned char kMagic[4] = {'S', 'C', 'S', 'B'};

/// Guard for attacker/corruption-controlled counts: a truncated or bit-
/// flipped length field must fail fast instead of driving a huge allocation.
void check_count(std::uint64_t count, std::uint64_t limit, const char* what) {
  if (count > limit)
    throw StoreError(std::string("store: implausible ") + what + " count (" +
                     std::to_string(count) + ")");
}

std::uint8_t activation_code(Activation a) {
  switch (a) {
    case Activation::kIdentity:
      return 0;
    case Activation::kRelu:
      return 1;
    case Activation::kTanh:
      return 2;
  }
  throw StoreError("store: unknown activation");
}

Activation activation_from_code(std::uint8_t code) {
  switch (code) {
    case 0:
      return Activation::kIdentity;
    case 1:
      return Activation::kRelu;
    case 2:
      return Activation::kTanh;
  }
  throw StoreError("store: bad activation code " + std::to_string(code));
}

std::uint8_t lambda_strategy_code(LambdaStrategy s) {
  return static_cast<std::uint8_t>(s);
}

LambdaStrategy lambda_strategy_from_code(std::uint8_t code) {
  if (code > static_cast<std::uint8_t>(LambdaStrategy::kAlternating))
    throw StoreError("store: bad lambda-strategy code " + std::to_string(code));
  return static_cast<LambdaStrategy>(code);
}

void write_pac_trace_row(BinaryWriter& w, const PacTraceRow& r) {
  w.i64(r.degree);
  w.f64(r.eta);
  w.f64(r.eps);
  w.f64(r.eps_requested);
  w.u64(r.samples);
  w.u64(r.samples_used);
  w.f64(r.error);
  w.f64(r.delta_e);
  w.boolean(r.converged);
  w.boolean(r.accepted);
  w.boolean(r.degraded);
  w.u64(r.dropped_samples);
  w.f64(r.seconds);
}

PacTraceRow read_pac_trace_row(BinaryReader& r) {
  PacTraceRow row;
  row.degree = static_cast<int>(r.i64());
  row.eta = r.f64();
  row.eps = r.f64();
  row.eps_requested = r.f64();
  row.samples = r.u64();
  row.samples_used = r.u64();
  row.error = r.f64();
  row.delta_e = r.f64();
  row.converged = r.boolean();
  row.accepted = r.boolean();
  row.degraded = r.boolean();
  row.dropped_samples = r.u64();
  row.seconds = r.f64();
  return row;
}

}  // namespace

void BinaryWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf_.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

void BinaryWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf_.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

void BinaryWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void BinaryWriter::str(const std::string& s) {
  u64(s.size());
  raw(s.data(), s.size());
}

void BinaryWriter::raw(const void* data, std::size_t len) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  buf_.insert(buf_.end(), bytes, bytes + len);
}

void BinaryReader::need(std::size_t n) const {
  if (pos_ + n > len_)
    throw StoreError("store: truncated blob (need " + std::to_string(n) +
                     " bytes at offset " + std::to_string(pos_) + ", have " +
                     std::to_string(len_ - pos_) + ")");
}

std::uint8_t BinaryReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t BinaryReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t BinaryReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  pos_ += 8;
  return v;
}

double BinaryReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string BinaryReader::str() {
  const std::uint64_t len = u64();
  need(len);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

// ---- Typed serializers.

void write_vec(BinaryWriter& w, const Vec& v) {
  w.u64(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) w.f64(v[i]);
}

Vec read_vec(BinaryReader& r) {
  const std::uint64_t n = r.u64();
  check_count(n, r.remaining() / 8, "vector element");
  Vec v(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < n; ++i) v[i] = r.f64();
  return v;
}

void write_mlp(BinaryWriter& w, const Mlp& net) {
  w.u64(net.layer_count());
  for (std::size_t k = 0; k < net.layer_count(); ++k) {
    const Mat& weight = net.weight(k);
    const Vec& bias = net.bias(k);
    w.u64(weight.rows());
    w.u64(weight.cols());
    w.u8(activation_code(net.activation(k)));
    for (std::size_t i = 0; i < weight.rows(); ++i)
      for (std::size_t j = 0; j < weight.cols(); ++j) w.f64(weight(i, j));
    for (std::size_t i = 0; i < bias.size(); ++i) w.f64(bias[i]);
  }
}

Mlp read_mlp(BinaryReader& r) {
  const std::uint64_t layers = r.u64();
  check_count(layers, 1024, "layer");
  if (layers == 0) throw StoreError("store: MLP with zero layers");

  std::vector<std::size_t> dims;
  std::vector<Activation> acts;
  std::vector<Mat> weights;
  std::vector<Vec> biases;
  for (std::uint64_t k = 0; k < layers; ++k) {
    const std::uint64_t out = r.u64();
    const std::uint64_t in = r.u64();
    if (out == 0 || in == 0) throw StoreError("store: empty MLP layer");
    check_count(out * in, r.remaining() / 8, "weight");
    const Activation act = activation_from_code(r.u8());
    if (k == 0)
      dims.push_back(static_cast<std::size_t>(in));
    else if (in != dims.back())
      throw StoreError("store: inconsistent MLP layer sizes");
    dims.push_back(static_cast<std::size_t>(out));
    acts.push_back(act);
    Mat weight(static_cast<std::size_t>(out), static_cast<std::size_t>(in));
    for (std::size_t i = 0; i < weight.rows(); ++i)
      for (std::size_t j = 0; j < weight.cols(); ++j) weight(i, j) = r.f64();
    Vec bias(static_cast<std::size_t>(out));
    for (std::size_t i = 0; i < bias.size(); ++i) bias[i] = r.f64();
    weights.push_back(std::move(weight));
    biases.push_back(std::move(bias));
  }

  Rng dummy(0);
  std::vector<std::size_t> hidden(dims.begin() + 1, dims.end() - 1);
  Mlp net(dims.front(), hidden, dims.back(),
          layers >= 2 ? acts.front() : acts.back(), acts.back(), dummy);
  for (std::size_t k = 0; k < static_cast<std::size_t>(layers); ++k) {
    if (net.activation(k) != acts[k])
      throw StoreError("store: unsupported mixed hidden activations");
    net.mutable_weight(k) = weights[k];
    net.mutable_bias(k) = biases[k];
  }
  return net;
}

void write_polynomial(BinaryWriter& w, const Polynomial& p) {
  w.u64(p.num_vars());
  w.u64(p.term_count());
  for (const auto& [mono, coeff] : p.terms()) {
    for (std::size_t i = 0; i < p.num_vars(); ++i) w.i64(mono.exponent(i));
    w.f64(coeff);
  }
}

Polynomial read_polynomial(BinaryReader& r) {
  const std::uint64_t num_vars = r.u64();
  check_count(num_vars, 4096, "polynomial variable");
  const std::uint64_t terms = r.u64();
  check_count(terms, r.remaining() / 8, "polynomial term");
  Polynomial p(static_cast<std::size_t>(num_vars));
  for (std::uint64_t t = 0; t < terms; ++t) {
    std::vector<int> exps(static_cast<std::size_t>(num_vars));
    for (std::size_t i = 0; i < exps.size(); ++i) {
      const std::int64_t e = r.i64();
      if (e < 0 || e > 1000000)
        throw StoreError("store: bad monomial exponent");
      exps[i] = static_cast<int>(e);
    }
    p.set_coefficient(Monomial(std::move(exps)), r.f64());
  }
  return p;
}

void write_pac_model(BinaryWriter& w, const PacModel& m) {
  write_polynomial(w, m.poly);
  w.f64(m.error);
  w.f64(m.eps);
  w.f64(m.eta);
  w.u64(m.samples);
  w.i64(m.degree);
  w.boolean(m.pac_valid);
}

PacModel read_pac_model(BinaryReader& r) {
  PacModel m;
  m.poly = read_polynomial(r);
  m.error = r.f64();
  m.eps = r.f64();
  m.eta = r.f64();
  m.samples = r.u64();
  m.degree = static_cast<int>(r.i64());
  m.pac_valid = r.boolean();
  return m;
}

void write_pac_result(BinaryWriter& w, const PacResult& res) {
  w.boolean(res.success);
  write_pac_model(w, res.model);
  w.u64(res.trace.size());
  for (const PacTraceRow& row : res.trace) write_pac_trace_row(w, row);
  w.u64(res.per_degree.size());
  for (const PacModel& m : res.per_degree) write_pac_model(w, m);
  w.f64(res.total_seconds);
}

PacResult read_pac_result(BinaryReader& r) {
  PacResult res;
  res.success = r.boolean();
  res.model = read_pac_model(r);
  const std::uint64_t rows = r.u64();
  check_count(rows, 100000, "PAC trace row");
  res.trace.reserve(static_cast<std::size_t>(rows));
  for (std::uint64_t i = 0; i < rows; ++i)
    res.trace.push_back(read_pac_trace_row(r));
  const std::uint64_t models = r.u64();
  check_count(models, 100000, "per-degree model");
  res.per_degree.reserve(static_cast<std::size_t>(models));
  for (std::uint64_t i = 0; i < models; ++i)
    res.per_degree.push_back(read_pac_model(r));
  res.total_seconds = r.f64();
  return res;
}

void write_eval_result(BinaryWriter& w, const EvalResult& e) {
  w.f64(e.mean_return);
  w.f64(e.safety_rate);
}

EvalResult read_eval_result(BinaryReader& r) {
  EvalResult e;
  e.mean_return = r.f64();
  e.safety_rate = r.f64();
  return e;
}

void write_barrier_result(BinaryWriter& w, const BarrierResult& b) {
  w.boolean(b.success);
  write_polynomial(w, b.barrier);
  write_polynomial(w, b.lambda);
  w.i64(b.degree);
  w.f64(b.seconds);
  w.u8(lambda_strategy_code(b.strategy_used));
  w.i64(b.attempts);
  w.str(b.failure_reason);
  w.f64(b.max_identity_residual);
  w.f64(b.min_gram_eigenvalue);
  w.str(b.accepted_via);
  w.str(b.accepted_arm);
}

BarrierResult read_barrier_result(BinaryReader& r) {
  BarrierResult b;
  b.success = r.boolean();
  b.barrier = read_polynomial(r);
  b.lambda = read_polynomial(r);
  b.degree = static_cast<int>(r.i64());
  b.seconds = r.f64();
  b.strategy_used = lambda_strategy_from_code(r.u8());
  b.attempts = static_cast<int>(r.i64());
  b.failure_reason = r.str();
  b.max_identity_residual = r.f64();
  b.min_gram_eigenvalue = r.f64();
  b.accepted_via = r.str();
  b.accepted_arm = r.str();
  return b;
}

void write_validation_report(BinaryWriter& w, const ValidationReport& v) {
  w.boolean(v.passed);
  w.u64(v.conditions.size());
  for (const ConditionCheck& c : v.conditions) {
    w.str(c.name);
    w.boolean(c.passed);
    w.boolean(c.certified);
    w.f64(c.worst);
    w.f64(c.threshold);
    w.f64(c.scale);
    w.f64(c.interval_bound);
    w.u64(c.points);
    write_vec(w, c.witness);
  }
  w.u64(v.rollouts);
  w.u64(v.unsafe_rollouts);
  w.str(v.detail);
}

ValidationReport read_validation_report(BinaryReader& r) {
  ValidationReport v;
  v.passed = r.boolean();
  const std::uint64_t rows = r.u64();
  check_count(rows, 16, "validation condition");
  v.conditions.resize(static_cast<std::size_t>(rows));
  for (ConditionCheck& c : v.conditions) {
    c.name = r.str();
    c.passed = r.boolean();
    c.certified = r.boolean();
    c.worst = r.f64();
    c.threshold = r.f64();
    c.scale = r.f64();
    c.interval_bound = r.f64();
    c.points = r.u64();
    c.witness = read_vec(r);
  }
  v.rollouts = r.u64();
  v.unsafe_rollouts = r.u64();
  v.detail = r.str();
  return v;
}

// ---- Blob framing.

std::vector<unsigned char> encode_blob(
    const std::string& kind, std::uint64_t key, const std::string& benchmark,
    const std::vector<unsigned char>& payload) {
  BinaryWriter w;
  w.raw(kMagic, sizeof(kMagic));
  w.u32(kStoreFormatVersion);
  w.str(kind);
  w.u64(key);
  w.str(benchmark);
  w.u64(payload.size());
  w.raw(payload.data(), payload.size());
  Fnv1a hasher;
  hasher.update(w.bytes().data(), w.bytes().size());
  w.u64(hasher.digest());
  return w.take();
}

namespace {

BlobHeader decode_header_impl(BinaryReader& r) {
  unsigned char magic[4];
  for (unsigned char& c : magic) c = r.u8();
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw StoreError("store: bad blob magic (not an scs_store blob)");
  BlobHeader h;
  h.format_version = r.u32();
  if (h.format_version != kStoreFormatVersion)
    throw StoreError("store: unsupported format version " +
                     std::to_string(h.format_version));
  h.kind = r.str();
  h.key = r.u64();
  h.benchmark = r.str();
  h.payload_size = r.u64();
  return h;
}

}  // namespace

BlobHeader decode_blob_header(const std::vector<unsigned char>& blob) {
  BinaryReader r(blob);
  return decode_header_impl(r);
}

std::vector<unsigned char> decode_blob(const std::vector<unsigned char>& blob,
                                       BlobHeader* header) {
  BinaryReader r(blob);
  const BlobHeader h = decode_header_impl(r);
  if (h.payload_size > r.remaining())
    throw StoreError("store: truncated blob payload");
  const std::size_t payload_begin = r.position();
  std::vector<unsigned char> payload(
      blob.begin() + static_cast<std::ptrdiff_t>(payload_begin),
      blob.begin() +
          static_cast<std::ptrdiff_t>(payload_begin + h.payload_size));

  BinaryReader tail(blob.data() + payload_begin + h.payload_size,
                    blob.size() - payload_begin -
                        static_cast<std::size_t>(h.payload_size));
  const std::uint64_t stored_checksum = tail.u64();
  if (!tail.at_end())
    throw StoreError("store: trailing garbage after checksum");
  Fnv1a hasher;
  hasher.update(blob.data(),
                payload_begin + static_cast<std::size_t>(h.payload_size));
  if (hasher.digest() != stored_checksum)
    throw StoreError("store: checksum mismatch (blob is corrupt)");
  if (header != nullptr) *header = h;
  return payload;
}

}  // namespace scs
