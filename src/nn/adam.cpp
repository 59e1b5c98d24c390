#include "nn/adam.hpp"

#include <cmath>

#include "math/simd.hpp"
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
  simd::AdamStep step;
  step.beta1 = config_.beta1;
  step.beta2 = config_.beta2;
  step.bias1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
  step.bias2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
  step.lr = config_.lr;
  step.eps = config_.eps;
  simd::adam_update(params, m_.begin() + offset, v_.begin() + offset, grad, n,
                    step);
}

void Adam::reset() {
  m_.fill(0.0);
  v_.fill(0.0);
  t_ = 0;
}

}  // namespace scs
