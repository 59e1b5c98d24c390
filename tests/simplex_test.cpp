// Tests for the two-phase revised simplex LP solver.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "math/simd.hpp"
#include "obs/metrics.hpp"
#include "opt/simplex.hpp"
#include "poly/basis.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace scs {
namespace {

/// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (x,y >= 0), in
/// standard form with slacks; optimum (2, 6), objective 36.
LpProblem textbook_lp() {
  LpProblem lp;
  lp.a = Mat(3, 5);
  lp.a.set_row(0, Vec{1.0, 0.0, 1.0, 0.0, 0.0});
  lp.a.set_row(1, Vec{0.0, 2.0, 0.0, 1.0, 0.0});
  lp.a.set_row(2, Vec{3.0, 2.0, 0.0, 0.0, 1.0});
  lp.b = Vec{4.0, 12.0, 18.0};
  lp.c = Vec{-3.0, -5.0, 0.0, 0.0, 0.0};
  return lp;
}

TEST(Simplex, SolvesTextbookLp) {
  const LpProblem lp = textbook_lp();
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-8);
  EXPECT_NEAR(sol.x[1], 6.0, 1e-8);
  EXPECT_NEAR(sol.objective, -36.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible) {
  // x1 + x2 = -1 with x >= 0 is infeasible... encoded as x1 + x2 = 1 and
  // x1 + x2 = 3 simultaneously.
  LpProblem lp;
  lp.a = Mat(2, 2);
  lp.a.set_row(0, Vec{1.0, 1.0});
  lp.a.set_row(1, Vec{1.0, 1.0});
  lp.b = Vec{1.0, 3.0};
  lp.c = Vec{1.0, 1.0};
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  // min -x1 s.t. x1 - x2 = 0: x1 can grow without bound.
  LpProblem lp;
  lp.a = Mat(1, 2);
  lp.a.set_row(0, Vec{1.0, -1.0});
  lp.b = Vec{0.0};
  lp.c = Vec{-1.0, 0.0};
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kUnbounded);
}

TEST(Simplex, HandlesNegativeRhs) {
  // -x1 = -5  =>  x1 = 5.
  LpProblem lp;
  lp.a = Mat(1, 1);
  lp.a(0, 0) = -1.0;
  lp.b = Vec{-5.0};
  lp.c = Vec{1.0};
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 5.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // A degenerate LP (redundant constraints meeting at the optimum).
  LpProblem lp;
  lp.a = Mat(3, 5);
  lp.a.set_row(0, Vec{1.0, 1.0, 1.0, 0.0, 0.0});
  lp.a.set_row(1, Vec{1.0, 1.0, 0.0, 1.0, 0.0});
  lp.a.set_row(2, Vec{2.0, 2.0, 0.0, 0.0, 1.0});
  lp.b = Vec{1.0, 1.0, 2.0};
  lp.c = Vec{-1.0, -2.0, 0.0, 0.0, 0.0};
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -2.0, 1e-8);
}

class SimplexProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimplexProperty, RandomFeasibleLpSatisfiesKkt) {
  Rng rng(GetParam());
  const std::size_t m = 2 + rng.index(5);
  const std::size_t n = m + 1 + rng.index(6);
  // Construct a feasible problem: pick x0 >= 0, set b = A x0.
  LpProblem lp;
  lp.a = Mat(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) lp.a(i, j) = rng.uniform(-1.0, 1.0);
  Vec x0(n);
  for (auto& v : x0) v = rng.uniform(0.0, 2.0);
  lp.b = matvec(lp.a, x0);
  lp.c = Vec(n);
  for (auto& v : lp.c.data()) v = rng.uniform(-1.0, 1.0);

  const LpSolution sol = solve_lp(lp);
  if (sol.status == LpStatus::kUnbounded) GTEST_SKIP();
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  // Primal feasibility.
  EXPECT_LT((matvec(lp.a, sol.x) - lp.b).max_abs(), 1e-6);
  for (double v : sol.x) EXPECT_GE(v, -1e-9);
  // Optimality: objective no worse than a batch of random feasible points
  // built by projecting x0 (weak sanity check) and c'x <= c'x0.
  EXPECT_LE(sol.objective, dot(lp.c, x0) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexProperty, ::testing::Range(1, 26));

TEST(Simplex, IterationLimitCountsEveryPivot) {
  // The textbook LP takes three Phase-I pivots and none in Phase II. A cap
  // counts pivots: the capped phase reports every pivot it made, and a
  // phase whose last allowed pivot reaches the optimum is optimal. Under a
  // cap of 1 the Dantzig run makes 1 pivot, the Bland rerun from the
  // phase's starting basis makes 1 more, and the solve stops there.
  const LpProblem lp = textbook_lp();
  LpOptions options;
  const bool was_enabled = metrics_enabled();
  set_metrics_enabled(true);
  const Counter& restarts =
      MetricsRegistry::instance().counter("simplex.bland_restarts");
  const std::uint64_t before = restarts.value();

  options.max_iterations = 1;
  const LpSolution capped = solve_lp(lp, options);
  const std::uint64_t capped_restarts = restarts.value() - before;
  EXPECT_EQ(capped.status, LpStatus::kIterationLimit);
  EXPECT_EQ(capped.iterations, 2);
  EXPECT_EQ(capped_restarts, 1u);

  options.max_iterations = 3;
  const LpSolution exact = solve_lp(lp, options);
  const std::uint64_t exact_restarts =
      restarts.value() - before - capped_restarts;
  set_metrics_enabled(was_enabled);
  EXPECT_EQ(exact.status, LpStatus::kOptimal);
  EXPECT_EQ(exact.iterations, 3);
  EXPECT_EQ(exact_restarts, 0u);
  EXPECT_EQ(solve_lp(lp).iterations, 3);
}

// ---- Bit pin ----------------------------------------------------------------
//
// The solver's answers are pinned bit for bit, not to a tolerance: status,
// pivot count, basis and the bit patterns of x, the duals and the objective
// over a seeded corpus hash to one recorded digest. A change to pricing,
// the direction, the ratio test or the inverse update that moves any pivot
// or any bit moves the digest.

struct KernelGuard {
  explicit KernelGuard(simd::Kernel k) { simd::set_kernel_override(k); }
  ~KernelGuard() { simd::set_kernel_override(simd::Kernel::kAuto); }
};

std::vector<simd::Kernel> kernels_to_pin() {
  std::vector<simd::Kernel> kernels{simd::Kernel::kScalar};
  if (simd::avx2_available()) kernels.push_back(simd::Kernel::kAvx2);
  return kernels;
}

/// m x n matrix whose entries are nonzero with probability `density`;
/// `integer` draws them from {-2, ..., 2} so that ratios tie exactly.
Mat sparse_matrix(Rng& rng, std::size_t m, std::size_t n, double density,
                  bool integer) {
  Mat a(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (rng.uniform01() < density)
        a(i, j) = integer ? static_cast<double>(rng.index(5)) - 2.0
                          : rng.uniform(-1.0, 1.0);
  return a;
}

/// A feasible LP b = A x0 (x0 >= 0, so b has mixed signs and rows get
/// flipped). With `bounded`, a row sum(x) + s = sum(x0) + 1 with its own
/// slack column keeps the optimum finite.
LpProblem feasible_lp(Rng& rng, std::size_t m, std::size_t n, double density,
                      bool integer, bool bounded) {
  const Mat core = sparse_matrix(rng, m, n, density, integer);
  Vec x0(n);
  for (auto& v : x0)
    v = integer ? static_cast<double>(rng.index(2)) : rng.uniform(0.0, 2.0);
  LpProblem lp;
  const std::size_t rows = bounded ? m + 1 : m;
  const std::size_t cols = bounded ? n + 1 : n;
  lp.a = Mat(rows, cols);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) lp.a(i, j) = core(i, j);
  lp.b = Vec(rows);
  const Vec b0 = matvec(core, x0);
  for (std::size_t i = 0; i < m; ++i) lp.b[i] = b0[i];
  if (bounded) {
    for (std::size_t j = 0; j <= n; ++j) lp.a(m, j) = 1.0;
    lp.b[m] = x0.sum() + 1.0;
  }
  lp.c = Vec(cols);
  for (std::size_t j = 0; j < n; ++j)
    lp.c[j] = integer ? static_cast<double>(rng.index(5)) - 2.0
                      : rng.uniform(-1.0, 1.0);
  return lp;
}

/// Append row `src0 + src1` (and its right-hand side) to `lp`.
void append_sum_row(LpProblem& lp, std::size_t src0, std::size_t src1) {
  const std::size_t m = lp.a.rows(), n = lp.a.cols();
  Mat a(m + 1, n);
  Vec b(m + 1);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = lp.a(i, j);
    b[i] = lp.b[i];
  }
  for (std::size_t j = 0; j < n; ++j) a(m, j) = lp.a(src0, j) + lp.a(src1, j);
  b[m] = lp.b[src0] + lp.b[src1];
  lp.a = a;
  lp.b = b;
}

/// The minimax exchange's support LP (as `minimax_fit` builds it) over the
/// rows of `design`: dense coefficient columns c+ and c-, the error column
/// e, and one unit slack per row.
LpProblem support_lp(const Mat& design, const Vec& targets) {
  const std::size_t s = design.rows(), v = design.cols();
  LpProblem lp;
  const std::size_t ncols = 2 * v + 1 + 2 * s;
  lp.a = Mat(2 * s, ncols);
  lp.b = Vec(2 * s);
  lp.c = Vec(ncols, 0.0);
  lp.c[2 * v] = 1.0;
  for (std::size_t k = 0; k < s; ++k) {
    for (std::size_t j = 0; j < v; ++j) {
      const double phi = design(k, j);
      lp.a(2 * k, j) = phi;
      lp.a(2 * k, v + j) = -phi;
      lp.a(2 * k + 1, j) = -phi;
      lp.a(2 * k + 1, v + j) = phi;
    }
    lp.a(2 * k, 2 * v) = -1.0;
    lp.a(2 * k + 1, 2 * v) = -1.0;
    lp.a(2 * k, 2 * v + 1 + 2 * k) = 1.0;
    lp.a(2 * k + 1, 2 * v + 2 + 2 * k) = 1.0;
    lp.b[2 * k] = targets[k];
    lp.b[2 * k + 1] = -targets[k];
  }
  return lp;
}

/// Support LP on s random samples of a v-term basis whose first term is 1.
LpProblem support_lp(Rng& rng, std::size_t s, std::size_t v) {
  Mat design(s, v);
  Vec targets(s);
  for (std::size_t k = 0; k < s; ++k) {
    targets[k] = rng.uniform(-1.0, 1.0);
    for (std::size_t j = 0; j < v; ++j)
      design(k, j) = j == 0 ? 1.0 : rng.uniform(-1.0, 1.0);
  }
  return support_lp(design, targets);
}

/// Fifty seeded LPs: feasible sparse ones, minimax support LPs, degenerate
/// integer ones with ratio ties, redundant rows (an artificial stays basic),
/// infeasible and unbounded ones.
std::vector<LpProblem> pinned_corpus() {
  std::vector<LpProblem> lps;
  for (int seed = 1; seed <= 10; ++seed) {
    Rng rng(100 + seed);
    const std::size_t m = 3 + rng.index(6);
    lps.push_back(feasible_lp(rng, m, m + 2 + rng.index(8), 0.6, false, true));
  }
  for (int seed = 1; seed <= 10; ++seed) {
    Rng rng(200 + seed);
    lps.push_back(support_lp(rng, 4 + rng.index(9), 2 + rng.index(3)));
  }
  for (int seed = 1; seed <= 10; ++seed) {
    Rng rng(300 + seed);
    const std::size_t m = 3 + rng.index(5);
    lps.push_back(feasible_lp(rng, m, m + 2 + rng.index(6), 0.5, true, true));
  }
  for (int seed = 1; seed <= 8; ++seed) {
    Rng rng(400 + seed);
    const std::size_t m = 3 + rng.index(4);
    LpProblem lp = feasible_lp(rng, m, m + 3 + rng.index(5), 0.7, true, true);
    append_sum_row(lp, 0, 1);
    append_sum_row(lp, 2, 2);
    lps.push_back(lp);
  }
  for (int seed = 1; seed <= 6; ++seed) {
    // A nonnegative row with a negative right-hand side: infeasible.
    Rng rng(500 + seed);
    const std::size_t m = 2 + rng.index(4);
    LpProblem lp = feasible_lp(rng, m, m + 2 + rng.index(5), 0.6, false, true);
    for (std::size_t j = 0; j < lp.a.cols(); ++j)
      lp.a(m, j) = static_cast<double>(rng.index(3));
    lp.a(m, 0) = 1.0;
    lp.b[m] = -1.0;
    lps.push_back(lp);
  }
  for (int seed = 1; seed <= 6; ++seed) {
    // Column n is the negation of column 0, so the ray e_0 + e_n keeps A x
    // fixed while the cost falls by 1 per unit: unbounded.
    Rng rng(600 + seed);
    const std::size_t m = 2 + rng.index(4);
    const std::size_t n = m + 2 + rng.index(5);
    const LpProblem base = feasible_lp(rng, m, n, 0.6, false, false);
    LpProblem lp;
    lp.a = Mat(m, n + 1);
    lp.c = Vec(n + 1);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) lp.a(i, j) = base.a(i, j);
      lp.a(i, n) = -base.a(i, 0);
    }
    for (std::size_t j = 0; j < n; ++j) lp.c[j] = std::fabs(base.c[j]);
    lp.c[0] = -1.0;
    lp.b = base.b;
    lps.push_back(lp);
  }
  return lps;
}

// Recorded from the dense-pricing solver this corpus was written against.
constexpr std::uint64_t kCorpusDigest = 0x3a73f3b4f162b1e9ull;

TEST(Simplex, PinnedCorpusIsBitIdentical) {
  const std::vector<LpProblem> lps = pinned_corpus();
  ASSERT_EQ(lps.size(), 50u);
  for (const simd::Kernel kernel : kernels_to_pin()) {
    KernelGuard guard(kernel);
    Fnv1a h;
    int optimal = 0, infeasible = 0, unbounded = 0, artificial_basic = 0;
    for (const LpProblem& lp : lps) {
      const LpSolution sol = solve_lp(lp);
      hash_append(h, static_cast<int>(sol.status));
      hash_append(h, sol.iterations);
      hash_append(h, sol.basis);
      hash_append(h, sol.x);
      hash_append(h, sol.dual);
      hash_append(h, sol.objective);
      optimal += sol.status == LpStatus::kOptimal;
      infeasible += sol.status == LpStatus::kInfeasible;
      unbounded += sol.status == LpStatus::kUnbounded;
      for (const std::size_t j : sol.basis)
        if (j >= lp.a.cols()) {
          ++artificial_basic;
          break;
        }
    }
    EXPECT_EQ(h.digest(), kCorpusDigest)
        << "kernel " << simd::active_kernel_name() << ": 0x" << std::hex
        << h.digest();
    // The corpus keeps covering every terminal path it was built for.
    EXPECT_GE(optimal, 30);
    EXPECT_EQ(infeasible, 6);
    EXPECT_EQ(unbounded, 6);
    EXPECT_GE(artificial_basic, 1);
  }
}

/// The support LP at the exchange's real size: fast C1's template (v = 10
/// monomials of degree <= 3 in two variables) at s uniform points of
/// [-1, 1]^2 with a smooth target, so 2s rows and 21 + 2s columns.
LpProblem exchange_lp(std::uint64_t seed, std::size_t s) {
  Rng rng(seed);
  const auto basis = monomials_up_to(2, 3);
  Mat design(s, basis.size());
  Vec targets(s);
  for (std::size_t k = 0; k < s; ++k) {
    const Vec x(rng.uniform_vector(2, -1.0, 1.0));
    design.set_row(k, evaluate_basis(basis, x));
    targets[k] = std::tanh(1.5 * x[0] - x[1]) + 0.3 * std::sin(3.0 * x[1]);
  }
  return support_lp(design, targets);
}

/// A 10-row LP whose Phase I makes 11 pivots and ends with structural
/// columns basic. Capped at 16 pivots per phase, its Phase II reaches the cap
/// after 16 Dantzig pivots and is rerun under Bland's rule from the phase's
/// starting basis, a B^{-1} that is not the identity; the rerun reaches the
/// optimum in 16 more (43 pivots in all, 28 uncapped).
LpProblem bland_rerun_lp() {
  Rng rng(10189);
  const std::size_t m = 6 + rng.index(10);
  return feasible_lp(rng, m, 3 * m + rng.index(20), 0.5, false, true);
}

/// `base` with one single-nonzero column a e_r appended per value a, each in
/// a random row r and priced at -1.
LpProblem with_single_nonzero_columns(Rng& rng, const LpProblem& base,
                                      const std::vector<double>& values) {
  const std::size_t rows = base.a.rows(), cols = base.a.cols();
  LpProblem lp;
  lp.a = Mat(rows, cols + values.size());
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) lp.a(i, j) = base.a(i, j);
  for (std::size_t e = 0; e < values.size(); ++e)
    lp.a(rng.index(rows), cols + e) = values[e];
  lp.b = base.b;
  lp.c = Vec(cols + values.size());
  for (std::size_t j = 0; j < cols; ++j) lp.c[j] = base.c[j];
  for (std::size_t e = 0; e < values.size(); ++e) lp.c[cols + e] = -1.0;
  return lp;
}

/// An integer LP with columns 2 e_r and 3 e_r' appended. The 2 column enters
/// twice while its row's column of B^{-1} is dense; after each pivot that
/// column of B^{-1} is -0.5 e_leave: one nonzero, but not a signed unit
/// vector, so its value cannot be assumed to be +-1.
LpProblem scaled_unit_lp() {
  Rng rng(9002);
  const std::size_t m = 4 + rng.index(4);
  const LpProblem base =
      feasible_lp(rng, m, m + 3 + rng.index(5), 0.6, true, true);
  return with_single_nonzero_columns(rng, base, {2.0, 3.0});
}

/// An LP with columns 3 e_r, 0.7 e_r' and -1.3 e_r'' appended. When such a
/// column enters, its row's column of B^{-1} is (1/a) e_leave only up to
/// rounding residues in other rows, which here reach the answer's bits: a
/// solver that took the column for a unit one without checking every row
/// moves this digest.
LpProblem residue_lp() {
  Rng rng(20001);
  const std::size_t m = 4 + rng.index(8);
  const LpProblem base =
      feasible_lp(rng, m, m + 3 + rng.index(8), 0.6, false, true);
  return with_single_nonzero_columns(rng, base, {3.0, 0.7, -1.3});
}

TEST(Simplex, DenseColumnsCountTheNonUnitColumnsOfTheInverse) {
  // Every column of this LP is a unit column (x_i and the slack s_i both
  // e_i), so every basis it visits keeps B^{-1} a signed permutation: the
  // counter stays 0 while pivots are made. On the support LP the 2v + 1
  // coefficient and error columns enter, and each pivot treats at most
  // that many columns of B^{-1} as dense.
  LpProblem unit;
  unit.a = Mat(3, 6);
  for (std::size_t i = 0; i < 3; ++i) {
    unit.a(i, i) = 1.0;
    unit.a(i, 3 + i) = 1.0;
  }
  unit.b = Vec{1.0, 2.0, 3.0};
  unit.c = Vec{-1.0, -2.0, -3.0, 0.0, 0.0, 0.0};
  const LpProblem support = exchange_lp(7001, 30);

  const bool was_enabled = metrics_enabled();
  set_metrics_enabled(true);
  const Counter& pivots = MetricsRegistry::instance().counter("simplex.pivots");
  const Counter& dense =
      MetricsRegistry::instance().counter("simplex.dense_columns");
  const std::uint64_t pivots0 = pivots.value(), dense0 = dense.value();
  const LpSolution unit_sol = solve_lp(unit);
  const std::uint64_t pivots1 = pivots.value(), dense1 = dense.value();
  const LpSolution support_sol = solve_lp(support);
  const std::uint64_t pivots2 = pivots.value(), dense2 = dense.value();
  set_metrics_enabled(was_enabled);

  ASSERT_EQ(unit_sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(unit_sol.objective, -14.0, 1e-12);
  EXPECT_GT(pivots1 - pivots0, 0u);
  EXPECT_EQ(dense1 - dense0, 0u);

  ASSERT_EQ(support_sol.status, LpStatus::kOptimal);
  const std::uint64_t support_pivots = pivots2 - pivots1;
  EXPECT_EQ(support_pivots, 116u);
  EXPECT_GT(dense2 - dense1, 0u);
  EXPECT_LE(dense2 - dense1, 21 * support_pivots);
}

// Recorded from the dense-inverse solver, under both kernels.
constexpr std::uint64_t kExchangeDigest = 0xedf19c30544d55efull;

TEST(Simplex, PinnedExchangeSizedLpsAreBitIdentical) {
  // Support LPs of 60, 220 and 540 rows reach what the 24-row corpus above
  // cannot: dozens of dense columns in B^{-1} and unit columns that re-enter
  // after leaving. The other cases rerun Phase II from a B^{-1} that is not
  // the identity, and enter single-nonzero columns that are not +-1.
  struct Case {
    LpProblem lp;
    int max_iterations;
    std::uint64_t bland_restarts;
  };
  const Case cases[] = {{exchange_lp(7001, 30), 20000, 0},
                        {exchange_lp(7002, 110), 20000, 0},
                        {exchange_lp(7003, 270), 20000, 0},
                        {bland_rerun_lp(), 16, 1},
                        {scaled_unit_lp(), 20000, 0},
                        {residue_lp(), 20000, 0}};
  const bool was_enabled = metrics_enabled();
  set_metrics_enabled(true);
  const Counter& restarts =
      MetricsRegistry::instance().counter("simplex.bland_restarts");
  for (const simd::Kernel kernel : kernels_to_pin()) {
    KernelGuard guard(kernel);
    Fnv1a h;
    for (const Case& c : cases) {
      LpOptions options;
      options.max_iterations = c.max_iterations;
      const std::uint64_t before = restarts.value();
      const LpSolution sol = solve_lp(c.lp, options);
      hash_append(h, static_cast<int>(sol.status));
      hash_append(h, sol.iterations);
      hash_append(h, sol.basis);
      hash_append(h, sol.x);
      hash_append(h, sol.dual);
      hash_append(h, sol.objective);
      EXPECT_EQ(sol.status, LpStatus::kOptimal);
      EXPECT_EQ(restarts.value() - before, c.bland_restarts);
    }
    EXPECT_EQ(h.digest(), kExchangeDigest)
        << "kernel " << simd::active_kernel_name() << ": 0x" << std::hex
        << h.digest();
  }
  set_metrics_enabled(was_enabled);
}

}  // namespace
}  // namespace scs
