// Tests for polynomial arithmetic: ring axioms, evaluation, substitution,
// derivatives, variable lifting.
#include <gtest/gtest.h>

#include "poly/basis.hpp"
#include "poly/polynomial.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

#include "test_helpers.hpp"

namespace scs {
namespace {

Polynomial random_poly(std::size_t n, int degree, Rng& rng) {
  const auto basis = monomials_up_to(n, degree);
  Vec c(basis.size());
  for (auto& v : c) v = rng.uniform(-2.0, 2.0);
  return Polynomial::from_coefficients(basis, c);
}

TEST(Polynomial, ConstructionAndDegree) {
  const auto x1 = Polynomial::variable(2, 0);
  const auto x2 = Polynomial::variable(2, 1);
  const Polynomial p = x1 * x1 * 3.0 + x2 * (-1.0) +
                       Polynomial::constant(2, 0.5);
  EXPECT_EQ(p.degree(), 2);
  EXPECT_EQ(p.term_count(), 3u);
  EXPECT_DOUBLE_EQ(p.evaluate(Vec{2.0, 1.0}), 12.0 - 1.0 + 0.5);
}

TEST(Polynomial, ZeroHandling) {
  const Polynomial z(3);
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.degree(), -1);
  const auto p = Polynomial::variable(3, 0);
  EXPECT_TRUE((p - p).is_zero());
  EXPECT_EQ((p * 0.0).term_count(), 0u);
}

TEST(Polynomial, ProductExpandsCorrectly) {
  // (x1 + x2)^2 = x1^2 + 2 x1 x2 + x2^2.
  const auto x1 = Polynomial::variable(2, 0);
  const auto x2 = Polynomial::variable(2, 1);
  const Polynomial sq = (x1 + x2).pow(2);
  EXPECT_DOUBLE_EQ(sq.coefficient(Monomial({2, 0})), 1.0);
  EXPECT_DOUBLE_EQ(sq.coefficient(Monomial({1, 1})), 2.0);
  EXPECT_DOUBLE_EQ(sq.coefficient(Monomial({0, 2})), 1.0);
  EXPECT_EQ(sq.term_count(), 3u);
}

class RingAxioms : public ::testing::TestWithParam<int> {};

TEST_P(RingAxioms, RandomizedIdentities) {
  Rng rng(GetParam());
  const std::size_t n = 1 + rng.index(4);
  const Polynomial a = random_poly(n, 2, rng);
  const Polynomial b = random_poly(n, 3, rng);
  const Polynomial c = random_poly(n, 2, rng);
  // Commutativity / associativity / distributivity via coefficient equality.
  EXPECT_LT(max_coefficient_diff(a * b, b * a), 1e-12);
  EXPECT_LT(max_coefficient_diff((a * b) * c, a * (b * c)), 1e-9);
  EXPECT_LT(max_coefficient_diff(a * (b + c), a * b + a * c), 1e-10);
  // Evaluation homomorphism at random points.
  for (int t = 0; t < 5; ++t) {
    const Vec x(rng.uniform_vector(n, -1.5, 1.5));
    EXPECT_NEAR((a * b).evaluate(x), a.evaluate(x) * b.evaluate(x), 1e-8);
    EXPECT_NEAR((a + b).evaluate(x), a.evaluate(x) + b.evaluate(x), 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingAxioms, ::testing::Range(1, 21));

TEST(Polynomial, DerivativeKnownCase) {
  // d/dx1 (x1^3 x2 - 2 x1) = 3 x1^2 x2 - 2.
  const auto x1 = Polynomial::variable(2, 0);
  const auto x2 = Polynomial::variable(2, 1);
  const Polynomial p = x1.pow(3) * x2 - x1 * 2.0;
  const Polynomial d = p.derivative(0);
  EXPECT_DOUBLE_EQ(d.coefficient(Monomial({2, 1})), 3.0);
  EXPECT_DOUBLE_EQ(d.coefficient(Monomial({0, 0})), -2.0);
}

class LeibnizRule : public ::testing::TestWithParam<int> {};

TEST_P(LeibnizRule, ProductRuleHolds) {
  Rng rng(100 + GetParam());
  const std::size_t n = 1 + rng.index(3);
  const Polynomial a = random_poly(n, 3, rng);
  const Polynomial b = random_poly(n, 2, rng);
  for (std::size_t i = 0; i < n; ++i) {
    const Polynomial lhs = (a * b).derivative(i);
    const Polynomial rhs = a.derivative(i) * b + a * b.derivative(i);
    EXPECT_LT(max_coefficient_diff(lhs, rhs), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeibnizRule, ::testing::Range(1, 11));

TEST(Polynomial, SubstituteMatchesEvaluation) {
  Rng rng(5);
  const Polynomial p = random_poly(2, 4, rng);
  const Polynomial q = random_poly(2, 2, rng);
  const Polynomial composed = p.substitute(1, q);
  for (int t = 0; t < 10; ++t) {
    Vec x(rng.uniform_vector(2, -1.0, 1.0));
    Vec x_sub = x;
    x_sub[1] = q.evaluate(x);
    EXPECT_NEAR(composed.evaluate(x), p.evaluate(x_sub), 1e-7);
  }
}

TEST(Polynomial, ExtendAndDropVars) {
  const Polynomial p =
      Polynomial::variable(2, 0) * Polynomial::variable(2, 1) * 2.0;
  const Polynomial lifted = p.extend_vars(1);
  EXPECT_EQ(lifted.num_vars(), 3u);
  EXPECT_NEAR(lifted.evaluate(Vec{2.0, 3.0, 99.0}), 12.0, 1e-12);
  const Polynomial back = lifted.drop_trailing_vars(1);
  EXPECT_LT(max_coefficient_diff(back, p), 1e-15);
}

TEST(Polynomial, DropOccupiedVarThrows) {
  const Polynomial p = Polynomial::variable(2, 1);
  EXPECT_THROW(p.drop_trailing_vars(1), PreconditionError);
}

TEST(Polynomial, CoefficientsRoundTrip) {
  Rng rng(8);
  const auto basis = monomials_up_to(3, 3);
  Vec c(basis.size());
  for (auto& v : c) v = rng.normal();
  const Polynomial p = Polynomial::from_coefficients(basis, c);
  const Vec c2 = p.coefficients_in(basis);
  EXPECT_LT(max_abs_diff(c, c2), 1e-15);
}

TEST(Polynomial, CoefficientsOutsideBasisThrows) {
  const Polynomial p = Polynomial::variable(2, 0).pow(4);
  EXPECT_THROW(p.coefficients_in(monomials_up_to(2, 2)), PreconditionError);
}

TEST(Polynomial, PruneRemovesTinyTerms) {
  Polynomial p = Polynomial::variable(1, 0) +
                 Polynomial::constant(1, 1e-12);
  EXPECT_EQ(p.prune(1e-9), 1u);
  EXPECT_EQ(p.term_count(), 1u);
}

TEST(Polynomial, ToStringReadable) {
  const Polynomial p = Polynomial::variable(2, 0) * Polynomial::variable(2, 0)
                       * 1.5 - Polynomial::constant(2, 2.0);
  EXPECT_EQ(p.to_string(), "1.5*x1^2 - 2");
}

}  // namespace
}  // namespace scs
