// Tests for the MLP substrate: forward pass, gradient checking through the
// batched pass, bitwise equality of batched and one-row passes, parameter
// round trips, soft updates.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nn/mlp.hpp"
#include "util/check.hpp"

#include "test_helpers.hpp"

namespace scs {
namespace {

bool bits_equal(const double* a, const double* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool bits_equal(const Vec& a, const Vec& b) {
  return a.size() == b.size() && bits_equal(a.begin(), b.begin(), a.size());
}

/// One-row batched forward + backward of `x` with output gradient `dy`:
/// adds the parameter gradient to `grad` and returns dL/dx.
Vec backward_one(const Mlp& net, const Vec& x, const Vec& dy, Vec& grad) {
  Mlp::Batch pass = net.make_batch(1);
  for (std::size_t j = 0; j < x.size(); ++j) pass.x(j, 0) = x[j];
  net.forward(pass);
  for (std::size_t i = 0; i < dy.size(); ++i) pass.dy(i, 0) = dy[i];
  Mat dx(net.input_dim(), 1);
  net.backward(pass, &grad, &dx);
  return dx.col(0);
}

TEST(Mlp, ForwardShapesAndStructureString) {
  Rng rng(1);
  Mlp net(3, {30, 30, 30, 30, 30}, 1, Activation::kRelu, Activation::kTanh,
          rng);
  EXPECT_EQ(net.input_dim(), 3u);
  EXPECT_EQ(net.output_dim(), 1u);
  EXPECT_EQ(net.layer_count(), 6u);
  EXPECT_EQ(net.structure_string(), "3-30-30-30-30-30-1");
  const Vec y = net.forward(Vec{0.1, -0.2, 0.3});
  ASSERT_EQ(y.size(), 1u);
  EXPECT_LE(std::fabs(y[0]), 1.0);  // tanh output range
}

TEST(Mlp, ParameterRoundTrip) {
  Rng rng(2);
  Mlp net(2, {5}, 2, Activation::kRelu, Activation::kIdentity, rng);
  const Vec p = net.parameters();
  EXPECT_EQ(p.size(), net.parameter_count());
  EXPECT_EQ(p.size(), 2u * 5u + 5u + 5u * 2u + 2u);
  Vec p2 = p;
  for (auto& v : p2) v += 0.5;
  net.set_parameters(p2);
  EXPECT_LT(max_abs_diff(net.parameters(), p2), 1e-15);
}

TEST(Mlp, GradientCheckTanh) {
  // Finite-difference check of dL/dtheta with L = y (single output).
  Rng rng(3);
  Mlp net(2, {4, 4}, 1, Activation::kTanh, Activation::kTanh, rng);
  const Vec x{0.3, -0.7};

  Vec grad(net.parameter_count(), 0.0);
  backward_one(net, x, Vec{1.0}, grad);

  const Vec p = net.parameters();
  const double h = 1e-6;
  for (std::size_t i = 0; i < p.size(); i += 7) {  // spot check
    Vec pp = p;
    pp[i] += h;
    net.set_parameters(pp);
    const double yp = net.forward(x)[0];
    pp[i] -= 2 * h;
    net.set_parameters(pp);
    const double ym = net.forward(x)[0];
    net.set_parameters(p);
    EXPECT_NEAR(grad[i], (yp - ym) / (2 * h), 1e-5)
        << "parameter index " << i;
  }
}

TEST(Mlp, GradientCheckReluInputGradient) {
  Rng rng(4);
  Mlp net(3, {8}, 2, Activation::kRelu, Activation::kIdentity, rng);
  const Vec x{0.5, -0.3, 0.9};
  Vec grad(net.parameter_count(), 0.0);
  const Vec dy{1.0, -2.0};
  const Vec dx = backward_one(net, x, dy, grad);

  const double h = 1e-6;
  for (std::size_t i = 0; i < 3; ++i) {
    Vec xp = x;
    xp[i] += h;
    const Vec yp = net.forward(xp);
    xp[i] -= 2 * h;
    const Vec ym = net.forward(xp);
    const double fd = (dot(dy, yp) - dot(dy, ym)) / (2 * h);
    EXPECT_NEAR(dx[i], fd, 1e-5);
  }
}

TEST(Mlp, BackwardAccumulatesAcrossSamples) {
  Rng rng(5);
  Mlp net(1, {3}, 1, Activation::kTanh, Activation::kIdentity, rng);
  Vec g1(net.parameter_count(), 0.0);
  backward_one(net, Vec{0.5}, Vec{1.0}, g1);
  // Same sample twice accumulates exactly double.
  Vec g2(net.parameter_count(), 0.0);
  backward_one(net, Vec{0.5}, Vec{1.0}, g2);
  backward_one(net, Vec{0.5}, Vec{1.0}, g2);
  for (std::size_t i = 0; i < g1.size(); ++i)
    EXPECT_NEAR(g2[i], 2.0 * g1[i], 1e-12);
}

TEST(Mlp, SoftUpdateInterpolates) {
  Rng rng(6);
  Mlp a(2, {4}, 1, Activation::kRelu, Activation::kTanh, rng);
  Mlp b(2, {4}, 1, Activation::kRelu, Activation::kTanh, rng);
  const Vec pa = a.parameters();
  const Vec pb = b.parameters();
  a.soft_update_from(b, 0.25);
  const Vec pc = a.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_NEAR(pc[i], 0.75 * pa[i] + 0.25 * pb[i], 1e-12);
}

TEST(Mlp, RejectsBadShapes) {
  Rng rng(7);
  Mlp net(2, {4}, 1, Activation::kRelu, Activation::kTanh, rng);
  EXPECT_THROW(net.set_parameters(Vec(3)), PreconditionError);
  Mlp other(3, {4}, 1, Activation::kRelu, Activation::kTanh, rng);
  EXPECT_THROW(net.soft_update_from(other, 0.1), PreconditionError);
  // Same parameter count (17), different layer shapes.
  Mlp a(2, {4}, 1, Activation::kRelu, Activation::kTanh, rng);
  Mlp b(2, {3}, 2, Activation::kRelu, Activation::kTanh, rng);
  ASSERT_EQ(a.parameter_count(), b.parameter_count());
  EXPECT_THROW(a.soft_update_from(b, 0.1), PreconditionError);
  EXPECT_THROW(Mlp(0, {}, 1, Activation::kRelu, Activation::kTanh, rng),
               PreconditionError);
  // A batch made for another shape, or with a wrong output gradient.
  Mlp::Batch wrong = other.make_batch(4);
  EXPECT_THROW(net.forward(wrong), PreconditionError);
  Mlp::Batch pass = net.make_batch(4);
  net.forward(pass);
  pass.dy = Mat(1, 3);
  Vec grad(net.parameter_count(), 0.0);
  EXPECT_THROW(net.backward(pass, &grad, nullptr), PreconditionError);
  EXPECT_THROW(net.make_batch(0), PreconditionError);
}

/// Random net with hidden activation `act`; its first-layer biases are
/// zero, so an all-zero input column puts every first-layer ReLU unit at
/// exactly zero.
Mlp random_net(std::size_t in, const std::vector<std::size_t>& hidden,
               std::size_t out, Activation act, Rng& rng) {
  return Mlp(in, hidden, out, act, Activation::kIdentity, rng);
}

TEST(MlpBatch, ForwardColumnsHaveThePerSampleBits) {
  Rng rng(8);
  for (const Activation act : {Activation::kTanh, Activation::kRelu}) {
    const Mlp net = random_net(5, {9, 7}, 3, act, rng);
    for (const std::size_t rows : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 64u}) {
      Mlp::Batch pass = net.make_batch(rows);
      std::vector<Vec> xs;
      for (std::size_t b = 0; b < rows; ++b) {
        xs.emplace_back(rng.uniform_vector(5, -2.0, 2.0));
        for (std::size_t j = 0; j < 5; ++j) pass.x(j, b) = xs[b][j];
      }
      net.forward(pass);
      for (std::size_t b = 0; b < rows; ++b)
        EXPECT_TRUE(bits_equal(pass.y().col(b), net.forward(xs[b])))
            << "rows " << rows << " column " << b;
    }
  }
}

TEST(MlpBatch, BackwardEqualsOneRowPassesAccumulatedInOrder) {
  // A B-row backward must give the bits of B one-row passes run in sample
  // order into the same buffer, for the parameter gradient and for dL/dx.
  // Column 0 is all zero, so with zero first-layer biases every first-layer
  // ReLU unit sits exactly at 0 there (act' = 0, dead for the input
  // gradient); other columns kill about half the units.
  Rng rng(9);
  for (const Activation act : {Activation::kRelu, Activation::kTanh}) {
    const Mlp net = random_net(6, {10, 5}, 2, act, rng);
    for (const std::size_t rows : {1u, 3u, 4u, 6u, 9u, 64u}) {
      Mlp::Batch pass = net.make_batch(rows);
      std::vector<Vec> xs, dys;
      for (std::size_t b = 0; b < rows; ++b) {
        xs.push_back(b == 0 ? Vec(6, 0.0)
                            : Vec(rng.uniform_vector(6, -1.5, 1.5)));
        dys.emplace_back(rng.uniform_vector(2, -1.0, 1.0));
        for (std::size_t j = 0; j < 6; ++j) pass.x(j, b) = xs[b][j];
        for (std::size_t i = 0; i < 2; ++i) pass.dy(i, b) = dys[b][i];
      }
      // Start from a nonzero buffer: sums continue from its value.
      Vec batched(net.parameter_count(), 0.25);
      Vec looped = batched;
      net.forward(pass);
      Mat dx(6, rows);
      net.backward(pass, &batched, &dx);
      for (std::size_t b = 0; b < rows; ++b) {
        const Vec dx_b = backward_one(net, xs[b], dys[b], looped);
        EXPECT_TRUE(bits_equal(dx.col(b), dx_b)) << "dx column " << b;
      }
      EXPECT_TRUE(bits_equal(batched, looped)) << "rows " << rows;
      if (act == Activation::kRelu) {
        // The zero column's input gradient passes through dead units only.
        const Vec dx0 = dx.col(0);
        for (std::size_t j = 0; j < 6; ++j) EXPECT_EQ(dx0[j], 0.0);
      }
      // Either output alone has the bits of both together.
      Vec grad_only(net.parameter_count(), 0.25);
      net.backward(pass, &grad_only, nullptr);
      EXPECT_TRUE(bits_equal(grad_only, batched));
      Mat dx_only(6, rows);
      net.backward(pass, nullptr, &dx_only);
      EXPECT_TRUE(bits_equal(dx_only.row_ptr(0), dx.row_ptr(0), 6 * rows));
    }
  }
}

TEST(MlpBatch, ForEachBlockWalksTheFlattenedOrder) {
  Rng rng(10);
  Mlp net(3, {4}, 2, Activation::kRelu, Activation::kTanh, rng);
  const Vec flat = net.parameters();
  Vec walked;
  std::size_t blocks = 0;
  net.for_each_block([&](double* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      walked.data().push_back(p[i]);
      p[i] += 1.0;
    }
    ++blocks;
  });
  EXPECT_EQ(blocks, 4u);  // W0, b0, W1, b1
  EXPECT_TRUE(bits_equal(walked, flat));
  const Vec moved = net.parameters();
  for (std::size_t i = 0; i < flat.size(); ++i)
    EXPECT_EQ(moved[i], flat[i] + 1.0);
}

TEST(Activations, Values) {
  const Vec pre{-1.0, 0.0, 2.0};
  const Vec relu = activate(Activation::kRelu, pre);
  EXPECT_DOUBLE_EQ(relu[0], 0.0);
  EXPECT_DOUBLE_EQ(relu[2], 2.0);
  const Vec th = activate(Activation::kTanh, pre);
  EXPECT_NEAR(th[0], std::tanh(-1.0), 1e-15);
  const Vec id = activate(Activation::kIdentity, pre);
  EXPECT_DOUBLE_EQ(id[0], -1.0);
}

}  // namespace
}  // namespace scs
