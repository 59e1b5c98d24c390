// Feed-forward multilayer perceptron with manual backpropagation.
//
// This is the DNN-controller substrate for Section 3.1: actors are
// "n-30(5)-1" style ReLU networks with tanh output (as in Table 2); the DDPG
// critic reuses the same class with an identity output.
//
// Training runs batched: forward() and backward() over a Batch take B
// samples at once as feature-major matrices, and every output and gradient
// element has the bits a per-sample loop would give it (see backward()).
// Parameters have one flattened order (layer-major: W row-major, then b);
// gradients use it, and optimizers step the layer storage in place through
// for_each_block().
#pragma once

#include <string>
#include <vector>

#include "math/mat.hpp"
#include "math/vec.hpp"
#include "util/rng.hpp"

namespace scs {

enum class Activation { kIdentity, kRelu, kTanh };

/// Apply an activation elementwise.
Vec activate(Activation act, const Vec& pre);

class Mlp {
 public:
  Mlp() = default;

  /// Fully connected net: input -> hidden[0] -> ... -> output.
  /// Hidden layers use `hidden_act`; the last layer uses `output_act`.
  /// Weights get He/Xavier-style initialization from `rng`.
  Mlp(std::size_t input_dim, const std::vector<std::size_t>& hidden,
      std::size_t output_dim, Activation hidden_act, Activation output_act,
      Rng& rng);

  std::size_t input_dim() const;
  std::size_t output_dim() const;
  std::size_t layer_count() const { return weights_.size(); }

  /// Plain forward pass (inference).
  Vec forward(const Vec& x) const;

  /// One batched pass over B samples. Every matrix is feature-major: one
  /// row per unit, column b for sample b, so the forward kernel
  /// (simd::dot_columns) vectorises across samples. The caller fills `x`
  /// before forward() and `dy` before backward(). Made once by
  /// make_batch() and reused, so a pass allocates nothing.
  struct Batch {
    Mat x;                  // input_dim x B
    std::vector<Mat> pre;   // pre[k]: layer k's pre-activation, out_k x B
    std::vector<Mat> post;  // post[k]: layer k's output; post.back() is y
    Mat dy;                 // output_dim x B: dL/dy
    // backward() scratch: feature-major gradients (the widest layer x B),
    // a sample-major (B x the widest layer) copy of a layer input or input
    // gradient, and one sample's units with a nonzero gradient and their
    // gradients.
    std::vector<double> delta, delta_next, sample_major, coef;
    std::vector<std::size_t> live;

    std::size_t size() const { return x.cols(); }
    const Mat& y() const { return post.back(); }
  };

  /// Workspace for passes over B = `samples` samples.
  Batch make_batch(std::size_t samples) const;

  /// Runs the columns of batch.x through the net into batch.y(). Column b
  /// of the output has the bits forward() gives column b of the input.
  void forward(Batch& batch) const;

  /// Backpropagates batch.dy through the pass forward() recorded. With
  /// `grad` (parameter_count() long, flattened order) it adds every
  /// sample's parameter gradient, each element summed in ascending sample
  /// order from its current value: the sums of a per-sample loop. With
  /// `dx` (input_dim x B) it writes dL/dx there.
  void backward(Batch& batch, Vec* grad, Mat* dx) const;

  /// Number of scalar parameters.
  std::size_t parameter_count() const;

  /// Visits the parameter storage in flattened order as contiguous blocks,
  /// f(data, length): layer k's weights (row-major), then its biases.
  /// Optimizers step these in place, with no flattened copy.
  template <class F>
  void for_each_block(F&& f) {
    visit_blocks(*this, f);
  }
  template <class F>
  void for_each_block(F&& f) const {
    visit_blocks(*this, f);
  }

  /// Flattened parameters (layer-major; W row-major, then b).
  Vec parameters() const;
  void set_parameters(const Vec& flat);

  /// Soft update toward another net, in place:
  /// theta <- tau * other + (1-tau) * theta. Every layer's shape must match.
  void soft_update_from(const Mlp& other, double tau);

  const Mat& weight(std::size_t layer) const { return weights_[layer]; }
  const Vec& bias(std::size_t layer) const { return biases_[layer]; }
  Mat& mutable_weight(std::size_t layer) { return weights_[layer]; }
  Vec& mutable_bias(std::size_t layer) { return biases_[layer]; }

  /// Rescale the output layer's weights and biases (the DDPG paper's small
  /// final-layer initialization, preventing early tanh saturation).
  void scale_output_layer(double factor);
  Activation activation(std::size_t layer) const { return acts_[layer]; }

  /// "n-30(5)-1"-style structure string as printed in Table 2.
  std::string structure_string() const;

 private:
  void check_batch(const Batch& batch, const char* who) const;

  template <class Self, class F>
  static void visit_blocks(Self& self, F& f) {
    for (std::size_t k = 0; k < self.weights_.size(); ++k) {
      auto& w = self.weights_[k];
      f(w.row_ptr(0), w.rows() * w.cols());
      f(self.biases_[k].begin(), self.biases_[k].size());
    }
  }

  std::vector<Mat> weights_;  // weights_[k]: (out_k x in_k)
  std::vector<Vec> biases_;
  std::vector<Activation> acts_;
};

}  // namespace scs
