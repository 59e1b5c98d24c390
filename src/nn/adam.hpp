// Adam optimizer (Kingma & Ba) over a flat parameter vector or, in place,
// over a network's parameter storage.
#pragma once

#include "math/vec.hpp"

namespace scs {

class Mlp;

/// Stateful Adam on a fixed-size parameter vector. The learning rate is the
/// one setting; beta1, beta2 and eps are Kingma & Ba's defaults (adam.cpp).
class Adam {
 public:
  Adam(std::size_t parameter_count, double lr);

  /// One update: params -= lr * mhat / (sqrt(vhat) + eps).
  void step(Vec& params, const Vec& grad);

  /// The same update applied to `net`'s layer storage in place; `grad` is
  /// in the net's flattened order (Mlp::parameters()).
  void step(Mlp& net, const Vec& grad);

  void reset();

 private:
  /// Steps params[0, n) with moment slots [offset, offset + n).
  void update(double* params, const double* grad, std::size_t offset,
              std::size_t n);

  double lr_;
  Vec m_;
  Vec v_;
  long t_ = 0;
};

}  // namespace scs
