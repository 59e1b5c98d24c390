// Tests for the Adam optimizer.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "util/check.hpp"

namespace scs {
namespace {

TEST(Adam, MinimizesQuadratic) {
  // f(x) = (x - 3)^2: Adam must converge to 3.
  Adam opt(1, 0.1);
  Vec x{0.0};
  for (int i = 0; i < 500; ++i) {
    const Vec g{2.0 * (x[0] - 3.0)};
    opt.step(x, g);
  }
  EXPECT_NEAR(x[0], 3.0, 1e-3);
}

TEST(Adam, FirstStepHasSizeLr) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  Adam opt(2, 0.01);
  Vec x{0.0, 0.0};
  opt.step(x, Vec{5.0, -0.001});
  EXPECT_NEAR(x[0], -0.01, 1e-6);
  EXPECT_NEAR(x[1], 0.01, 1e-6);
}

TEST(Adam, ResetClearsState) {
  Adam opt(1, 0.1);
  Vec x{0.0};
  opt.step(x, Vec{1.0});
  opt.reset();
  Vec y{0.0};
  opt.step(y, Vec{1.0});
  EXPECT_NEAR(y[0], -0.1, 1e-9);
}

TEST(Adam, MinimizesRosenbrockish) {
  // A tougher 2-D bowl: f = (1-a)^2 + 5 (b - a^2)^2.
  Adam opt(2, 0.02);
  Vec x{-1.0, 1.0};
  for (int i = 0; i < 8000; ++i) {
    const double a = x[0], b = x[1];
    Vec g{-2.0 * (1.0 - a) - 20.0 * (b - a * a) * a, 10.0 * (b - a * a)};
    opt.step(x, g);
  }
  EXPECT_NEAR(x[0], 1.0, 0.05);
  EXPECT_NEAR(x[1], 1.0, 0.1);
}

TEST(Adam, NetStepMatchesFlatStepBitForBit) {
  // Stepping a network's layer storage in place is the flat update on its
  // parameters() vector, element for element.
  Rng rng(3);
  Mlp net(3, {5, 4}, 2, Activation::kTanh, Activation::kIdentity, rng);
  Vec flat = net.parameters();
  Adam in_place(net.parameter_count(), 0.01);
  Adam on_flat(net.parameter_count(), 0.01);
  for (int step = 0; step < 5; ++step) {
    const Vec grad(rng.uniform_vector(net.parameter_count(), -1.0, 1.0));
    in_place.step(net, grad);
    on_flat.step(flat, grad);
  }
  const Vec stepped = net.parameters();
  for (std::size_t i = 0; i < flat.size(); ++i)
    EXPECT_EQ(stepped[i], flat[i]) << "parameter " << i;
  Mlp other(2, {5}, 1, Activation::kTanh, Activation::kIdentity, rng);
  EXPECT_THROW(in_place.step(other, Vec(other.parameter_count())),
               PreconditionError);
}

TEST(Adam, RejectsBadInputs) {
  EXPECT_THROW(Adam(1, 0.0), PreconditionError);
  Adam opt(2, 1e-3);
  Vec x{0.0};
  EXPECT_THROW(opt.step(x, Vec{1.0}), PreconditionError);
}

}  // namespace
}  // namespace scs
