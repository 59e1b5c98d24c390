#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "math/simd.hpp"
#include "util/check.hpp"

namespace scs {

Vec activate(Activation act, const Vec& pre) {
  Vec out = pre;
  switch (act) {
    case Activation::kIdentity:
      break;
    case Activation::kRelu:
      for (double& v : out) v = v > 0.0 ? v : 0.0;
      break;
    case Activation::kTanh:
      for (double& v : out) v = std::tanh(v);
      break;
  }
  return out;
}

Mlp::Mlp(std::size_t input_dim, const std::vector<std::size_t>& hidden,
         std::size_t output_dim, Activation hidden_act, Activation output_act,
         Rng& rng) {
  SCS_REQUIRE(input_dim > 0 && output_dim > 0, "Mlp: zero-sized layer");
  std::vector<std::size_t> dims;
  dims.push_back(input_dim);
  for (std::size_t h : hidden) {
    SCS_REQUIRE(h > 0, "Mlp: zero-sized hidden layer");
    dims.push_back(h);
  }
  dims.push_back(output_dim);

  for (std::size_t k = 0; k + 1 < dims.size(); ++k) {
    const std::size_t in = dims[k];
    const std::size_t out = dims[k + 1];
    const bool last = (k + 2 == dims.size());
    const Activation act = last ? output_act : hidden_act;
    // He initialization for ReLU layers, Xavier-style otherwise.
    const double scale = (act == Activation::kRelu)
                             ? std::sqrt(2.0 / static_cast<double>(in))
                             : std::sqrt(1.0 / static_cast<double>(in));
    Mat w(out, in);
    for (std::size_t i = 0; i < out; ++i)
      for (std::size_t j = 0; j < in; ++j) w(i, j) = rng.normal(0.0, scale);
    weights_.push_back(std::move(w));
    biases_.push_back(Vec(out, 0.0));
    acts_.push_back(act);
  }
}

std::size_t Mlp::input_dim() const {
  SCS_REQUIRE(!weights_.empty(), "Mlp: uninitialized network");
  return weights_.front().cols();
}

std::size_t Mlp::output_dim() const {
  SCS_REQUIRE(!weights_.empty(), "Mlp: uninitialized network");
  return weights_.back().rows();
}

Vec Mlp::forward(const Vec& x) const {
  SCS_REQUIRE(!weights_.empty(), "Mlp::forward: uninitialized network");
  Vec h = x;
  for (std::size_t k = 0; k < weights_.size(); ++k) {
    Vec pre = matvec(weights_[k], h);
    pre += biases_[k];
    h = activate(acts_[k], pre);
  }
  return h;
}

Mlp::Batch Mlp::make_batch(std::size_t samples) const {
  SCS_REQUIRE(!weights_.empty(), "Mlp::make_batch: uninitialized network");
  SCS_REQUIRE(samples > 0, "Mlp::make_batch: empty batch");
  Batch batch;
  batch.x = Mat(input_dim(), samples);
  std::size_t widest = input_dim();
  for (const Mat& w : weights_) {
    batch.pre.emplace_back(w.rows(), samples);
    batch.post.emplace_back(w.rows(), samples);
    widest = std::max(widest, w.rows());
  }
  batch.dy = Mat(output_dim(), samples);
  batch.delta.resize(samples * widest);
  batch.delta_next.resize(samples * widest);
  batch.sample_major.resize(samples * widest);
  batch.live.resize(widest);
  batch.coef.resize(widest);
  return batch;
}

void Mlp::check_batch(const Batch& batch, const char* who) const {
  bool ok = !weights_.empty() && batch.pre.size() == weights_.size() &&
            batch.post.size() == weights_.size() &&
            batch.x.rows() == input_dim() && batch.size() > 0;
  for (std::size_t k = 0; ok && k < weights_.size(); ++k)
    ok = batch.pre[k].rows() == weights_[k].rows() &&
         batch.pre[k].cols() == batch.size() &&
         batch.post[k].rows() == weights_[k].rows() &&
         batch.post[k].cols() == batch.size();
  SCS_REQUIRE(ok, std::string(who) + ": batch does not match this network");
}

void Mlp::forward(Batch& batch) const {
  check_batch(batch, "Mlp::forward");
  const std::size_t n = batch.size();
  for (std::size_t k = 0; k < weights_.size(); ++k) {
    const Mat& w = weights_[k];
    const Mat& input = (k == 0) ? batch.x : batch.post[k - 1];
    Mat& pre = batch.pre[k];
    Mat& post = batch.post[k];
    simd::dot_columns(pre.row_ptr(0), w.row_ptr(0), w.rows(), w.cols(),
                      input.row_ptr(0), n);
    const bool relu = acts_[k] == Activation::kRelu;
    for (std::size_t i = 0; i < w.rows(); ++i)
      simd::bias_activate(pre.row_ptr(i), post.row_ptr(i), biases_[k][i], n,
                          relu);
    if (acts_[k] == Activation::kTanh) {
      double* y = post.row_ptr(0);
      for (std::size_t i = 0; i < w.rows() * n; ++i) y[i] = std::tanh(y[i]);
    }
  }
}

std::size_t Mlp::parameter_count() const {
  std::size_t total = 0;
  for (std::size_t k = 0; k < weights_.size(); ++k)
    total += weights_[k].rows() * weights_[k].cols() + biases_[k].size();
  return total;
}

Vec Mlp::parameters() const {
  Vec flat(parameter_count());
  double* out = flat.begin();
  for_each_block([&](const double* p, std::size_t n) {
    out = std::copy(p, p + n, out);
  });
  return flat;
}

void Mlp::set_parameters(const Vec& flat) {
  SCS_REQUIRE(flat.size() == parameter_count(),
              "Mlp::set_parameters: size mismatch");
  const double* in = flat.begin();
  for_each_block([&](double* p, std::size_t n) {
    std::copy(in, in + n, p);
    in += n;
  });
}

namespace {

/// dst (cols x rows) = src (rows x cols) transposed; both row-major.
void transpose_into(const double* src, std::size_t rows, std::size_t cols,
                    double* dst) {
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
}

}  // namespace

void Mlp::backward(Batch& batch, Vec* grad, Mat* dx) const {
  check_batch(batch, "Mlp::backward");
  const std::size_t n = batch.size();
  SCS_REQUIRE(batch.dy.rows() == output_dim() && batch.dy.cols() == n,
              "Mlp::backward: output gradient shape mismatch");
  SCS_REQUIRE(grad == nullptr || grad->size() == parameter_count(),
              "Mlp::backward: gradient buffer size mismatch");
  SCS_REQUIRE(dx == nullptr || (dx->rows() == input_dim() && dx->cols() == n),
              "Mlp::backward: input gradient shape mismatch");

  // delta = dL/d(output of the current layer), feature-major like pre and
  // post: row i is unit i, column b is sample b.
  double* delta = batch.delta.data();
  double* next = batch.delta_next.data();
  double* sample_major = batch.sample_major.data();
  std::copy(batch.dy.row_ptr(0), batch.dy.row_ptr(0) + output_dim() * n,
            delta);

  // Layers run last to first, so layer k's flat gradient offset is found
  // by walking down from the end.
  std::size_t offset = parameter_count();
  for (std::size_t k = weights_.size(); k-- > 0;) {
    const Mat& w = weights_[k];
    const std::size_t out = w.rows();
    const std::size_t in = w.cols();
    offset -= out * in + out;
    // dL/d(pre) = delta .* act'(pre), in place. The identity's factor 1
    // would change no bit, so it is not applied.
    switch (acts_[k]) {
      case Activation::kIdentity:
        break;
      case Activation::kRelu:
        simd::relu_grad(delta, batch.pre[k].row_ptr(0), out * n);
        break;
      case Activation::kTanh: {
        const double* y = batch.post[k].row_ptr(0);
        for (std::size_t i = 0; i < out * n; ++i) delta[i] *= 1.0 - y[i] * y[i];
        break;
      }
    }

    if (grad != nullptr) {
      // dL/dW += dpre * input^T and dL/db += dpre: every element adds its
      // samples' terms in ascending sample order to its current value.
      const Mat& input = (k == 0) ? batch.x : batch.post[k - 1];
      transpose_into(input.row_ptr(0), in, n, sample_major);
      double* gw = grad->begin() + offset;
      double* gb = gw + out * in;
      simd::outer_accumulate(gw, delta, out, sample_major, in, n);
      for (std::size_t b = 0; b < n; ++b)
        for (std::size_t i = 0; i < out; ++i) gb[i] += delta[i * n + b];
    }
    if (k == 0 && dx == nullptr) break;

    // dL/d(input) = W^T dpre per sample, as matvec_t sums it: over units in
    // ascending order from +0, skipping exact-zero terms (dead ReLU units,
    // whose weights may hold an inf that 0 * inf would turn into NaN). The
    // live units are listed first, without a branch per unit: which units
    // are dead changes from sample to sample.
    std::size_t* live = batch.live.data();
    double* coef = batch.coef.data();
    for (std::size_t b = 0; b < n; ++b) {
      std::size_t count = 0;
      for (std::size_t i = 0; i < out; ++i) {
        const double d = delta[i * n + b];
        live[count] = i;
        coef[count] = d;
        count += (d != 0.0) ? 1 : 0;
      }
      double* o = sample_major + b * in;
      std::fill(o, o + in, 0.0);
      simd::combine_rows(o, w.row_ptr(0), in, live, coef, count);
    }
    transpose_into(sample_major, n, in, next);
    std::swap(delta, next);
  }
  if (dx != nullptr)
    std::copy(delta, delta + input_dim() * n, dx->row_ptr(0));
}

void Mlp::soft_update_from(const Mlp& other, double tau) {
  bool same = weights_.size() == other.weights_.size();
  for (std::size_t k = 0; same && k < weights_.size(); ++k)
    same = weights_[k].rows() == other.weights_[k].rows() &&
           weights_[k].cols() == other.weights_[k].cols();
  SCS_REQUIRE(same, "Mlp::soft_update_from: architecture mismatch");
  const auto blend = [tau](double* mine, const double* theirs,
                           std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
      mine[i] = tau * theirs[i] + (1.0 - tau) * mine[i];
  };
  for (std::size_t k = 0; k < weights_.size(); ++k) {
    blend(weights_[k].row_ptr(0), other.weights_[k].row_ptr(0),
          weights_[k].rows() * weights_[k].cols());
    blend(biases_[k].begin(), other.biases_[k].begin(), biases_[k].size());
  }
}

void Mlp::scale_output_layer(double factor) {
  SCS_REQUIRE(!weights_.empty(), "Mlp::scale_output_layer: uninitialized");
  weights_.back() *= factor;
  biases_.back() *= factor;
}

std::string Mlp::structure_string() const {
  std::ostringstream os;
  os << input_dim();
  for (std::size_t k = 0; k + 1 < weights_.size(); ++k)
    os << '-' << weights_[k].rows();
  os << '-' << output_dim();
  return os.str();
}

}  // namespace scs
