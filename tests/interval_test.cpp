// Tests for interval arithmetic and the branch-and-bound bound prover.
#include <gtest/gtest.h>

#include "sos/interval.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace scs {
namespace {

TEST(Interval, BasicArithmetic) {
  const Interval a(1.0, 2.0), b(-1.0, 3.0);
  const Interval sum = a + b;
  EXPECT_DOUBLE_EQ(sum.lo, 0.0);
  EXPECT_DOUBLE_EQ(sum.hi, 5.0);
  const Interval diff = a - b;
  EXPECT_DOUBLE_EQ(diff.lo, -2.0);
  EXPECT_DOUBLE_EQ(diff.hi, 3.0);
  const Interval prod = a * b;
  EXPECT_DOUBLE_EQ(prod.lo, -2.0);
  EXPECT_DOUBLE_EQ(prod.hi, 6.0);
}

TEST(Interval, EvenPowerTightAtZero) {
  const Interval x(-2.0, 1.0);
  const Interval sq = x.pow(2);
  EXPECT_DOUBLE_EQ(sq.lo, 0.0);  // tight, not [-?, 4] naive product
  EXPECT_DOUBLE_EQ(sq.hi, 4.0);
  const Interval cube = x.pow(3);
  EXPECT_DOUBLE_EQ(cube.lo, -8.0);
  EXPECT_DOUBLE_EQ(cube.hi, 1.0);
}

TEST(Interval, EnclosureContainsSampledValues) {
  Rng rng(1);
  const auto x1 = Polynomial::variable(2, 0);
  const auto x2 = Polynomial::variable(2, 1);
  const Polynomial p = x1 * x1 * 2.0 - x1 * x2 + x2.pow(3) * 0.5 -
                       Polynomial::constant(2, 1.0);
  const Box box(Vec{-1.5, -0.5}, Vec{0.5, 2.0});
  const Interval range = interval_enclosure(p, box);
  for (int i = 0; i < 500; ++i) {
    const double v = p.evaluate(box.sample(rng));
    EXPECT_GE(v, range.lo - 1e-12);
    EXPECT_LE(v, range.hi + 1e-12);
  }
}

TEST(ProveLowerBound, ProvesPositiveDefiniteQuadratic) {
  // p = x1^2 + x2^2 + 0.1 >= 0.1 on [-1,1]^2.
  const auto x1 = Polynomial::variable(2, 0);
  const auto x2 = Polynomial::variable(2, 1);
  const Polynomial p = x1 * x1 + x2 * x2 + Polynomial::constant(2, 0.1);
  const BoundResult r = prove_lower_bound(p, Box::centered(2, 1.0), 0.05);
  EXPECT_TRUE(r.proven);
  EXPECT_GE(r.certified_lower_bound, 0.05);
}

TEST(ProveLowerBound, RefutesFalseClaim) {
  // p = x^2 - 0.5 is negative near 0: p >= 0 is false on [-1,1].
  const auto x = Polynomial::variable(1, 0);
  const Polynomial p = x * x - Polynomial::constant(1, 0.5);
  const BoundResult r = prove_lower_bound(p, Box::centered(1, 1.0), 0.0);
  EXPECT_FALSE(r.proven);
  EXPECT_FALSE(r.budget_exhausted);
  // The witness region contains a true violation.
  EXPECT_LT(p.evaluate(r.counterexample_region.center()), 0.0);
}

TEST(ProveLowerBound, NeedsSubdivisionForIndefiniteTerms) {
  // p = (x1 - x2)^2 + 0.01: naive enclosure of x1^2 - 2x1x2 + x2^2 on
  // [-1,1]^2 is [-2 + 0.01, ...], so subdivision is required -- but it is
  // genuinely nonnegative, so the proof must eventually close (the
  // minimum 0.01 sits on the diagonal; the prover needs slack below it).
  const auto x1 = Polynomial::variable(2, 0);
  const auto x2 = Polynomial::variable(2, 1);
  const Polynomial p = (x1 - x2).pow(2) + Polynomial::constant(2, 0.01);
  const BoundResult r = prove_lower_bound(p, Box::centered(2, 1.0), 0.0);
  EXPECT_TRUE(r.proven);
  EXPECT_GT(r.boxes_processed, 1u);
}

TEST(ProveLowerBound, BudgetExhaustionIsReported) {
  // A claim whose infimum equals the threshold on a whole curve (the
  // diagonal) cannot close: enclosures of (x1 - x2)^2 on diagonal boxes
  // never clear 0 strictly, and midpoints never refute, so the subdivision
  // runs through its whole 100000-box budget.
  const auto x1 = Polynomial::variable(2, 0);
  const auto x2 = Polynomial::variable(2, 1);
  const Polynomial p = (x1 - x2).pow(2);
  const BoundResult r = prove_lower_bound(p, Box::centered(2, 1.0), 0.0);
  EXPECT_FALSE(r.proven);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_EQ(r.boxes_processed, 100000u);
}

TEST(ProveLowerBound, BarrierConditionUseCase) {
  // Shell-geometry condition (ii): B = 1.44 - ||x||^2 < 0 on the unsafe
  // shell; prove -B >= 0.2 on a far sub-box of X_u.
  const auto x1 = Polynomial::variable(2, 0);
  const auto x2 = Polynomial::variable(2, 1);
  const Polynomial b =
      Polynomial::constant(2, 1.44) - x1 * x1 - x2 * x2;
  const Box far_box(Vec{1.5, -3.0}, Vec{3.0, 3.0});  // ||x|| >= 1.5 there
  const BoundResult r = prove_lower_bound(-b, far_box, 0.2);
  EXPECT_TRUE(r.proven);
}

TEST(Interval, RejectsBadInputs) {
  EXPECT_THROW(Interval(2.0, 1.0), PreconditionError);
  EXPECT_THROW(Interval(0.0, 1.0).pow(-1), PreconditionError);
  EXPECT_THROW(
      interval_enclosure(Polynomial::variable(2, 0), Box::centered(3, 1.0)),
      PreconditionError);
}

}  // namespace
}  // namespace scs
