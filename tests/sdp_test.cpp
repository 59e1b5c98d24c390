// Tests for the interior-point SDP solver: known analytic optima, duality,
// free-variable handling, and randomized feasibility sweeps.
#include <gtest/gtest.h>

#include <cmath>

#include "math/cholesky.hpp"
#include "math/eigen_sym.hpp"
#include "opt/sdp.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace scs {
namespace {

TEST(Sdp, MinTraceWithDiagonalConstraint) {
  // min tr(X) s.t. X_00 + X_11 = 2, X PSD (2x2). Optimum: tr(X) = 2.
  SdpProblem p;
  p.block_dims = {2};
  p.block_obj_weight = {1.0};
  SdpConstraint c;
  c.entries = {{0, 0, 0, 1.0}, {0, 1, 1, 1.0}};
  c.rhs = 2.0;
  p.constraints.push_back(c);
  const SdpSolution sol = solve_sdp(p);
  ASSERT_EQ(sol.status, SdpStatus::kConverged);
  EXPECT_NEAR(sol.primal_objective, 2.0, 1e-5);
  EXPECT_LT(sol.primal_infeasibility, 1e-6);
}

TEST(Sdp, OffDiagonalConventionDoublesEntry) {
  // Constraint 2*X_01 = 1 via a single off-diagonal entry with value 1.
  // With min tr(X), the optimum is X = [[1/2, 1/2],[1/2, 1/2]], trace 1
  // (rank-one with X_01 = 1/2).
  SdpProblem p;
  p.block_dims = {2};
  p.block_obj_weight = {1.0};
  SdpConstraint c;
  c.entries = {{0, 0, 1, 1.0}};
  c.rhs = 1.0;
  p.constraints.push_back(c);
  const SdpSolution sol = solve_sdp(p);
  ASSERT_EQ(sol.status, SdpStatus::kConverged);
  EXPECT_NEAR(2.0 * sol.x[0](0, 1), 1.0, 1e-5);
  EXPECT_NEAR(sol.primal_objective, 1.0, 1e-4);
}

TEST(Sdp, TwoBlocks) {
  // Independent blocks with separate trace constraints.
  SdpProblem p;
  p.block_dims = {2, 3};
  p.block_obj_weight = {1.0, 1.0};
  SdpConstraint c1;
  c1.entries = {{0, 0, 0, 1.0}, {0, 1, 1, 1.0}};
  c1.rhs = 1.0;
  SdpConstraint c2;
  c2.entries = {{1, 0, 0, 1.0}, {1, 1, 1, 1.0}, {1, 2, 2, 1.0}};
  c2.rhs = 3.0;
  p.constraints = {c1, c2};
  const SdpSolution sol = solve_sdp(p);
  ASSERT_EQ(sol.status, SdpStatus::kConverged);
  EXPECT_NEAR(sol.x[0].trace(), 1.0, 1e-5);
  EXPECT_NEAR(sol.x[1].trace(), 3.0, 1e-5);
}

TEST(Sdp, FreeVariableShiftsBudget) {
  // tr-minimization with a free variable absorbing the constraint:
  //   X_00 + f = 1, min tr(X) + 0*f -> X = 0, f = 1.
  SdpProblem p;
  p.block_dims = {1};
  p.block_obj_weight = {1.0};
  p.num_free = 1;
  SdpConstraint c;
  c.entries = {{0, 0, 0, 1.0}};
  c.free_terms = {{0, 1.0}};
  c.rhs = 1.0;
  p.constraints.push_back(c);
  // A second constraint pins the free variable: f = 1.
  SdpConstraint c2;
  c2.free_terms = {{0, 1.0}};
  c2.rhs = 1.0;
  p.constraints.push_back(c2);
  const SdpSolution sol = solve_sdp(p);
  ASSERT_EQ(sol.status, SdpStatus::kConverged);
  EXPECT_NEAR(sol.free_vars[0], 1.0, 1e-5);
  EXPECT_NEAR(sol.x[0](0, 0), 0.0, 1e-4);
  // The free column enters infeasibility_bound through ||B'y||: no y may
  // claim more than the size 1 of the solution X = 0, f = 1.
  Rng rng(7);
  for (int k = 0; k < 100; ++k) {
    const Vec y{1e8 * rng.normal(), 1e8 * rng.normal()};
    EXPECT_LE(infeasibility_bound(p, y), 1.0 + 1e-12) << "draw " << k;
  }
}

TEST(Sdp, FreeVariableWithCost) {
  // min tr(X) + f  s.t. X_00 - f = 0, X_00 + f = 2.
  // => X_00 = f = 1; objective 2.
  SdpProblem p;
  p.block_dims = {1};
  p.block_obj_weight = {1.0};
  p.num_free = 1;
  p.free_obj = Vec{1.0};
  SdpConstraint c1;
  c1.entries = {{0, 0, 0, 1.0}};
  c1.free_terms = {{0, -1.0}};
  c1.rhs = 0.0;
  SdpConstraint c2;
  c2.entries = {{0, 0, 0, 1.0}};
  c2.free_terms = {{0, 1.0}};
  c2.rhs = 2.0;
  p.constraints = {c1, c2};
  const SdpSolution sol = solve_sdp(p);
  ASSERT_EQ(sol.status, SdpStatus::kConverged);
  EXPECT_NEAR(sol.x[0](0, 0), 1.0, 1e-5);
  EXPECT_NEAR(sol.free_vars[0], 1.0, 1e-5);
}

TEST(Sdp, StructurallyInfeasibleEmptyRow) {
  SdpProblem p;
  p.block_dims = {1};
  SdpConstraint c;  // no entries, no free terms, nonzero rhs
  c.rhs = 1.0;
  p.constraints.push_back(c);
  EXPECT_EQ(solve_sdp(p).status, SdpStatus::kInfeasible);
}

TEST(Sdp, InfeasibleProblemDoesNotConverge) {
  // X_00 = -1 with X PSD is infeasible. y -> -infinity along the Farkas ray
  // y = -t, which proves every solution has size >= t: the run stops there
  // with a checked bound and is not retried.
  SdpProblem p;
  p.block_dims = {1};
  p.block_obj_weight = {1.0};
  SdpConstraint c;
  c.entries = {{0, 0, 0, 1.0}};
  c.rhs = -1.0;
  p.constraints.push_back(c);
  SdpOptions opts;
  opts.max_iterations = 40;
  const SdpSolution sol = solve_sdp(p, opts);
  ASSERT_EQ(sol.status, SdpStatus::kInfeasible);
  EXPECT_EQ(sol.restarts, 0);
  EXPECT_GT(sol.infeasibility_bound, kInfeasibilitySize);
  EXPECT_EQ(infeasibility_bound(p, sol.y), sol.infeasibility_bound);
  EXPECT_EQ(sol.x.size(), 1u);  // the last iterate is kept
}

class SdpRandomFeasible : public ::testing::TestWithParam<int> {};

TEST_P(SdpRandomFeasible, RecoversFeasiblePoint) {
  // Construct a feasible problem: pick X0 > 0, random sparse A_i, and set
  // b = A(X0). The solver must return a PSD X with A(X) ~ b.
  Rng rng(GetParam());
  const std::size_t n = 2 + rng.index(5);
  const std::size_t m = 1 + rng.index(2 * n);
  // X0 = L L' + I.
  Mat l(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) l(i, j) = rng.normal();
  Mat x0 = matmul_a_bt(l, l);
  for (std::size_t i = 0; i < n; ++i) x0(i, i) += 1.0;

  SdpProblem p;
  p.block_dims = {n};
  p.block_obj_weight = {1.0};
  for (std::size_t i = 0; i < m; ++i) {
    SdpConstraint c;
    const std::size_t nnz = 1 + rng.index(3);
    double rhs = 0.0;
    for (std::size_t e = 0; e < nnz; ++e) {
      const std::size_t r = rng.index(n);
      const std::size_t cc = r + rng.index(n - r);
      const double v = rng.uniform(-1.0, 1.0);
      c.entries.push_back({0, r, cc, v});
      rhs += (r == cc) ? v * x0(r, r) : 2.0 * v * x0(r, cc);
    }
    c.rhs = rhs;
    p.constraints.push_back(c);
  }
  const SdpSolution sol = solve_sdp(p);
  ASSERT_EQ(sol.status, SdpStatus::kConverged) << "seed " << GetParam();
  EXPECT_LT(sol.primal_infeasibility, 1e-6);
  EXPECT_GT(min_eigenvalue(sol.x[0]), -1e-7);

  // No y certifies a feasible program infeasible: every solution, X0
  // included, bounds infeasibility_bound from above -- at the final iterate
  // and at large random dual vectors like those of a diverging run.
  const double size = x0.trace() * (1.0 + 1e-12);
  EXPECT_LE(infeasibility_bound(p, sol.y), size);
  for (int k = 0; k < 20; ++k) {
    Vec y(m);
    for (double& v : y) v = 1e8 * rng.normal();
    EXPECT_LE(infeasibility_bound(p, y), size) << "draw " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SdpRandomFeasible, ::testing::Range(1, 26));

TEST(Sdp, RejectsBadInput) {
  SdpProblem p;  // no blocks
  EXPECT_THROW(solve_sdp(p), PreconditionError);
  p.block_dims = {2};
  EXPECT_THROW(solve_sdp(p), PreconditionError);  // no constraints
  SdpConstraint c;
  c.entries = {{3, 0, 0, 1.0}};  // bad block index
  p.constraints.push_back(c);
  EXPECT_THROW(solve_sdp(p), PreconditionError);
}

}  // namespace
}  // namespace scs
