#include "nn/adam.hpp"

#include <cmath>

#include "nn/mlp.hpp"
#include "util/check.hpp"

namespace scs {

Adam::Adam(std::size_t parameter_count, const AdamConfig& config)
    : config_(config), m_(parameter_count, 0.0), v_(parameter_count, 0.0) {
  SCS_REQUIRE(config.lr > 0.0, "Adam: learning rate must be positive");
  SCS_REQUIRE(config.beta1 >= 0.0 && config.beta1 < 1.0, "Adam: bad beta1");
  SCS_REQUIRE(config.beta2 >= 0.0 && config.beta2 < 1.0, "Adam: bad beta2");
}

void Adam::step(Vec& params, const Vec& grad) {
  SCS_REQUIRE(params.size() == m_.size() && grad.size() == m_.size(),
              "Adam::step: size mismatch");
  ++t_;
  update(params.begin(), grad.begin(), 0, params.size());
}

void Adam::step(Mlp& net, const Vec& grad) {
  SCS_REQUIRE(net.parameter_count() == m_.size() && grad.size() == m_.size(),
              "Adam::step: size mismatch");
  ++t_;
  std::size_t offset = 0;
  net.for_each_block([&](double* params, std::size_t n) {
    update(params, grad.begin() + offset, offset, n);
    offset += n;
  });
}

void Adam::update(double* params, const double* grad, std::size_t offset,
                  std::size_t n) {
  const double b1 = config_.beta1;
  const double b2 = config_.beta2;
  const double bc1 = 1.0 - std::pow(b1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(b2, static_cast<double>(t_));
  double* m = m_.begin() + offset;
  double* v = v_.begin() + offset;
  for (std::size_t i = 0; i < n; ++i) {
    m[i] = b1 * m[i] + (1.0 - b1) * grad[i];
    v[i] = b2 * v[i] + (1.0 - b2) * grad[i] * grad[i];
    const double mhat = m[i] / bc1;
    const double vhat = v[i] / bc2;
    params[i] -= config_.lr * mhat / (std::sqrt(vhat) + config_.eps);
  }
}

void Adam::reset() {
  m_.fill(0.0);
  v_.fill(0.0);
  t_ = 0;
}

}  // namespace scs
