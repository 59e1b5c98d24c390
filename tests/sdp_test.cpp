// Tests for the interior-point SDP solver: known analytic optima, duality,
// free-variable handling, and randomized feasibility sweeps.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "math/cholesky.hpp"
#include "math/eigen_sym.hpp"
#include "math/simd.hpp"
#include "opt/sdp.hpp"
#include "poly/basis.hpp"
#include "sos/sos_program.hpp"
#include "util/check.hpp"
#include "util/fault_injector.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace scs {
namespace {

/// min tr(X) s.t. X_00 + X_11 = 2 over one 2x2 block.
SdpProblem min_trace_problem() {
  SdpProblem p;
  p.block_dims = {2};
  p.block_obj_weight = {1.0};
  SdpConstraint c;
  c.entries = {{0, 0, 0, 1.0}, {0, 1, 1, 1.0}};
  c.rhs = 2.0;
  p.constraints.push_back(c);
  return p;
}

/// X_00 = -1 with X PSD (1x1): infeasible.
SdpProblem farkas_problem() {
  SdpProblem p;
  p.block_dims = {1};
  p.block_obj_weight = {1.0};
  SdpConstraint c;
  c.entries = {{0, 0, 0, 1.0}};
  c.rhs = -1.0;
  p.constraints.push_back(c);
  return p;
}

TEST(Sdp, MinTraceWithDiagonalConstraint) {
  // Optimum: tr(X) = 2.
  const SdpSolution sol = solve_sdp(min_trace_problem());
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
  // y -> -infinity along the Farkas ray y = -t, which proves every solution
  // has size >= t: the run stops there with a checked bound and is not
  // retried.
  const SdpProblem p = farkas_problem();
  const SdpSolution sol = solve_sdp(p);
  ASSERT_EQ(sol.status, SdpStatus::kInfeasible);
  EXPECT_EQ(sol.restarts, 0);
  EXPECT_GT(sol.infeasibility_bound, kInfeasibilitySize);
  EXPECT_EQ(infeasibility_bound(p, sol.y), sol.infeasibility_bound);
  EXPECT_EQ(sol.x.size(), 1u);  // the last iterate is kept
}

/// A feasible single-block problem: X0 = L L' + I and random sparse A_i,
/// with b = A(X0). `x0` receives X0.
SdpProblem random_feasible(Rng& rng, Mat* x0) {
  const std::size_t n = 2 + rng.index(5);
  const std::size_t m = 1 + rng.index(2 * n);
  Mat l(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) l(i, j) = rng.normal();
  *x0 = matmul_a_bt(l, l);
  for (std::size_t i = 0; i < n; ++i) (*x0)(i, i) += 1.0;

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
      rhs += (r == cc) ? v * (*x0)(r, r) : 2.0 * v * (*x0)(r, cc);
    }
    c.rhs = rhs;
    p.constraints.push_back(c);
  }
  return p;
}

class SdpRandomFeasible : public ::testing::TestWithParam<int> {};

TEST_P(SdpRandomFeasible, RecoversFeasiblePoint) {
  // The solver must return a PSD X with A(X) ~ b.
  Rng rng(GetParam());
  Mat x0;
  const SdpProblem p = random_feasible(rng, &x0);
  const std::size_t m = p.constraints.size();
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

// ---- Bit pin ----------------------------------------------------------------
//
// The solver's answers are pinned bit for bit over a small corpus: status,
// iterations, restarts, the infeasibility bound and the bit patterns of X,
// y, the free variables and the objective hash to one recorded digest. A
// change to the interior-point step, the stopping rules or the retry ladder
// that moves any iteration or any bit moves the digest.

struct KernelGuard {
  explicit KernelGuard(simd::Kernel k) { simd::set_kernel_override(k); }
  ~KernelGuard() { simd::set_kernel_override(simd::Kernel::kAuto); }
};

std::vector<simd::Kernel> kernels_to_pin() {
  std::vector<simd::Kernel> kernels{simd::Kernel::kScalar};
  if (simd::avx2_available()) kernels.push_back(simd::Kernel::kAvx2);
  return kernels;
}

void hash_solution(Fnv1a& h, const SdpSolution& sol) {
  hash_append(h, static_cast<int>(sol.status));
  hash_append(h, sol.iterations);
  hash_append(h, sol.restarts);
  hash_append(h, sol.infeasibility_bound);
  for (const Mat& x : sol.x)
    for (std::size_t i = 0; i < x.rows(); ++i)
      for (std::size_t j = 0; j < x.cols(); ++j) hash_append(h, x(i, j));
  hash_append(h, sol.y);
  hash_append(h, sol.free_vars);
  hash_append(h, sol.primal_objective);
}

/// sos_test's Putinar program: x (1 - x) + 0.3 = s0 + s1 x + s2 (1 - x)
/// with three SOS multipliers over {1, x}.
SdpProblem putinar_problem() {
  const Polynomial x = Polynomial::variable(1, 0);
  const Polynomial one = Polynomial::constant(1, 1.0);
  const Polynomial f = x * (one - x) + Polynomial::constant(1, 0.3);
  SosProgram prog(1);
  const auto s0 = prog.add_sos_poly(monomials_up_to(1, 1));
  const auto s1 = prog.add_sos_poly(monomials_up_to(1, 1));
  const auto s2 = prog.add_sos_poly(monomials_up_to(1, 1));
  prog.add_identity(f, {{-one, s0, {}}, {-x, s1, {}}, {-(one - x), s2, {}}});
  return prog.compile();
}

// Recorded from the solver that took SdpOptions, before its settings
// became constants.
constexpr std::uint64_t kSdpCorpusDigest = 0x4aceacb0a8aeaf09ull;

TEST(Sdp, PinnedCorpusIsBitIdentical) {
  FaultInjector& fi = FaultInjector::instance();
  fi.disarm();
  std::vector<SdpProblem> problems;
  for (int seed = 1; seed <= 10; ++seed) {
    Rng rng(700 + seed);
    Mat x0;
    problems.push_back(random_feasible(rng, &x0));
  }
  problems.push_back(farkas_problem());  // ends on a certificate
  problems.push_back(putinar_problem());

  for (const simd::Kernel kernel : kernels_to_pin()) {
    KernelGuard guard(kernel);
    Fnv1a h;
    int converged = 0, infeasible = 0;
    for (const SdpProblem& p : problems) {
      const SdpSolution sol = solve_sdp(p);
      hash_solution(h, sol);
      converged += sol.status == SdpStatus::kConverged;
      infeasible += sol.status == SdpStatus::kInfeasible;
    }
    // Fifteen suppressed steps stall the first run at the end of its stall
    // window; the first rescaled retry, with the injector spent, converges.
    fi.arm(/*seed=*/5, /*rate=*/1.0, /*max_fires=*/15);
    fi.arm_site(FaultSite::kCholeskyPivot, false);
    fi.arm_site(FaultSite::kNanBoundary, false);
    fi.arm_site(FaultSite::kStoreCorrupt, false);
    const SdpSolution retried = solve_sdp(min_trace_problem());
    const std::uint64_t fires = fi.fires(FaultSite::kSdpStall);
    fi.disarm();
    hash_solution(h, retried);

    EXPECT_EQ(h.digest(), kSdpCorpusDigest)
        << "kernel " << simd::active_kernel_name() << ": 0x" << std::hex
        << h.digest();
    // The corpus keeps covering every terminal path it was built for.
    EXPECT_EQ(converged, 11);
    EXPECT_EQ(infeasible, 1);
    EXPECT_EQ(fires, 15u);
    EXPECT_EQ(retried.status, SdpStatus::kConverged);
    EXPECT_EQ(retried.restarts, 1);
  }
}

/// One instance of the barrier program (12), built the way the barrier
/// ladder builds its B-step: free B of degree 2 normalized at a point, a
/// fixed lambda = -1, and three identities with SOS multipliers on Theta,
/// Psi and X_u, over the 2-state field (x2, -x1 - x2 - x1^3). The
/// identities have 6, 15 and 6 monomials, so the Schur complement is block
/// diagonal with blocks at rows 0, 6 and 21 and the normalization row last.
SdpProblem barrier_program() {
  const std::size_t n = 2;
  const Polynomial x1 = Polynomial::variable(n, 0);
  const Polynomial x2 = Polynomial::variable(n, 1);
  const Polynomial one = Polynomial::constant(n, 1.0);
  const std::vector<Polynomial> field{x2, -x1 - x2 - x1 * x1 * x1};
  const Polynomial theta = Polynomial::constant(n, 0.25) - x1 * x1 - x2 * x2;
  const Polynomial psi = Polynomial::constant(n, 4.0) - x1 * x1 - x2 * x2;
  const Polynomial dx = x1 - Polynomial::constant(n, 1.5);
  const Polynomial unsafe = Polynomial::constant(n, 0.09) - dx * dx - x2 * x2;
  const Polynomial lambda = Polynomial::constant(n, -1.0);

  SosProgram prog(n);
  const auto b = prog.add_free_poly(monomials_up_to(n, 2));
  prog.add_point_constraint(b, Vec{0.1, -0.05}, 1.0);
  // B - sigma theta - s0 == 0.
  const auto sigma = prog.add_sos_poly(monomials_up_to(n, 0));
  const auto s0 = prog.add_sos_poly(monomials_up_to(n, 1));
  prog.add_identity(Polynomial(n),
                    {{one, b, {}}, {-theta, sigma, {}}, {-one, s0, {}}});
  // L_f B - lambda B - phi psi - rho - s1 == 0.
  const auto phi = prog.add_sos_poly(monomials_up_to(n, 1));
  const auto s1 = prog.add_sos_poly(monomials_up_to(n, 2));
  prog.add_identity(Polynomial::constant(n, -0.01),
                    {{field[0], b, 0},
                     {field[1], b, 1},
                     {-lambda, b, {}},
                     {-psi, phi, {}},
                     {-one, s1, {}}});
  // -B - rho' - xi unsafe - s2 == 0.
  const auto xi = prog.add_sos_poly(monomials_up_to(n, 0));
  const auto s2 = prog.add_sos_poly(monomials_up_to(n, 1));
  prog.add_identity(Polynomial::constant(n, -0.01),
                    {{-one, b, {}}, {-unsafe, xi, {}}, {-one, s2, {}}});
  return prog.compile();
}

// Recorded before the Schur complement was factored inside its envelope.
constexpr std::uint64_t kSosBarrierDigest = 0x2f1aeca2e8f1efa7ull;

TEST(Sdp, PinnedSosBarrierProgramIsBitIdentical) {
  FaultInjector::instance().disarm();
  const SdpProblem p = barrier_program();
  ASSERT_EQ(p.constraints.size(), 28u);
  ASSERT_EQ(p.num_free, 6u);
  for (const simd::Kernel kernel : kernels_to_pin()) {
    KernelGuard guard(kernel);
    const SdpSolution sol = solve_sdp(p);
    Fnv1a h;
    hash_solution(h, sol);
    EXPECT_EQ(h.digest(), kSosBarrierDigest)
        << "kernel " << simd::active_kernel_name() << ": 0x" << std::hex
        << h.digest() << std::dec << " status " << to_string(sol.status)
        << " iterations " << sol.iterations << " restarts " << sol.restarts;
  }
}

}  // namespace
}  // namespace scs
