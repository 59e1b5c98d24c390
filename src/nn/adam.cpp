#include "nn/adam.hpp"

#include <cmath>

#include "math/simd.hpp"
#include "nn/mlp.hpp"
#include "util/check.hpp"

namespace scs {

namespace {

// Kingma & Ba's defaults.
constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;

static_assert(kBeta1 >= 0.0 && kBeta1 < 1.0, "Adam: bad beta1");
static_assert(kBeta2 >= 0.0 && kBeta2 < 1.0, "Adam: bad beta2");

}  // namespace

Adam::Adam(std::size_t parameter_count, double lr)
    : lr_(lr), m_(parameter_count, 0.0), v_(parameter_count, 0.0) {
  SCS_REQUIRE(lr > 0.0, "Adam: learning rate must be positive");
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
  step.beta1 = kBeta1;
  step.beta2 = kBeta2;
  step.bias1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
  step.bias2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
  step.lr = lr_;
  step.eps = kEps;
  simd::adam_update(params, m_.begin() + offset, v_.begin() + offset, grad, n,
                    step);
}

void Adam::reset() {
  m_.fill(0.0);
  v_.fill(0.0);
  t_ = 0;
}

}  // namespace scs
