#include "opt/minimax_fit.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <set>

#include "math/cholesky.hpp"
#include "math/robust_solve.hpp"
#include "math/simd.hpp"
#include "obs/trace.hpp"
#include "opt/simplex.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace scs {

namespace {

// Fit settings. Changing one changes the PAC stage's answers, so it must
// also add a revision to the PAC stage key (store/stage_cache.cpp), which
// carries none yet.
constexpr int kLawsonIterations = 40;
constexpr int kExchangeRounds = 60;
constexpr int kExchangeAddPerRound = 8;
constexpr double kExchangeTol = 1e-7;  // |e_full - e_support| acceptance
constexpr double kRidge = 1e-10;  // Tikhonov jitter for the weighted LS solves

// Samples per block of the normal-equation sweep: a block's design rows
// stay in L1 while every row group of the matrix passes over them.
constexpr std::size_t kGramBlock = 256;

// The two K-row sweeps keep the bits of the loops they replaced: a
// residual row is one `dot` (matvec's bits), and each normal-equation
// entry sums its K terms in ascending sample order from +0 (the plain
// triple loop's). Neither copies the design or a weighted design.

/// r = targets - design * c into the K-vector r; returns max |r|.
double residuals(const Mat& design, const Vec& targets, const Vec& c, Vec& r) {
  const std::size_t v = design.cols();
  simd::dot_rows(r.begin(), design.row_ptr(0), v, design.rows(), c.begin(),
                 v);
  double e = 0.0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] = targets[i] - r[i];
    e = std::max(e, std::fabs(r[i]));
  }
  return e;
}

/// Least squares with weights w (unit weights when w is null) via the
/// normal equations, solved through the robust layer: a severely
/// ill-conditioned basis gets diagonal-regularization retries plus one
/// round of iterative refinement instead of an exception. `ok()` is false
/// only when even the regularized factorization failed.
LinearSolveReport weighted_ls(const Mat& design, const Vec& targets,
                              const Vec* w) {
  const std::size_t k = design.rows();
  const std::size_t v = design.cols();
  Mat g(v, v);
  Vec rhs(v, 0.0);
  double ones[kGramBlock];
  std::fill(std::begin(ones), std::end(ones), 1.0);
  // Rows four at a time, each over columns [a0, v) of the upper triangle.
  // A zero weight adds +-0 products, which leave every sum as it was, so
  // no sample is skipped.
  for (std::size_t s0 = 0; s0 < k; s0 += kGramBlock) {
    const std::size_t len = std::min(kGramBlock, k - s0);
    const double* ws = w != nullptr ? w->begin() + s0 : ones;
    for (std::size_t a0 = 0; a0 < v; a0 += 4)
      simd::weighted_gram(g.row_ptr(0), rhs.begin(), design.row_ptr(s0), v,
                          ws, targets.begin() + s0, len, a0,
                          std::min(a0 + 4, v), a0, v);
  }
  // Mirror the upper triangle and add the ridge.
  for (std::size_t a = 0; a < v; ++a) {
    g(a, a) += kRidge;
    for (std::size_t bcol = a + 1; bcol < v; ++bcol) g(bcol, a) = g(a, bcol);
  }
  return robust_solve_spd(g, rhs);
}

/// Exact minimax LP over a support subset. Returns (c, e) solving
///   min e  s.t. |u_i - phi_i' c| <= e,  i in support.
struct SupportSolution {
  Vec c;
  double e = 0.0;
  bool ok = false;
};

SupportSolution solve_support_lp(const Mat& design, const Vec& targets,
                                 const std::vector<std::size_t>& support,
                                 const JobControl* control) {
  const std::size_t v = design.cols();
  const std::size_t s = support.size();
  // Variables: c+ (v), c- (v), e (1), slacks (2s). Rows: 2s.
  //   phi' (c+ - c-) - e + s1 = u      (phi'c - u <= e)
  //  -phi' (c+ - c-) - e + s2 = -u     (u - phi'c <= e)
  const std::size_t ncols = 2 * v + 1 + 2 * s;
  LpProblem lp;
  lp.a = Mat(2 * s, ncols);
  lp.b = Vec(2 * s);
  lp.c = Vec(ncols, 0.0);
  lp.c[2 * v] = 1.0;  // minimize e
  for (std::size_t k = 0; k < s; ++k) {
    const double* row = design.row_ptr(support[k]);
    const double u = targets[support[k]];
    for (std::size_t j = 0; j < v; ++j) {
      lp.a(2 * k, j) = row[j];
      lp.a(2 * k, v + j) = -row[j];
      lp.a(2 * k + 1, j) = -row[j];
      lp.a(2 * k + 1, v + j) = row[j];
    }
    lp.a(2 * k, 2 * v) = -1.0;
    lp.a(2 * k + 1, 2 * v) = -1.0;
    lp.a(2 * k, 2 * v + 1 + 2 * k) = 1.0;
    lp.a(2 * k + 1, 2 * v + 1 + 2 * k + 1) = 1.0;
    lp.b[2 * k] = u;
    lp.b[2 * k + 1] = -u;
  }
  LpOptions lp_options;
  lp_options.control = control;
  const LpSolution sol = solve_lp(lp, lp_options);
  SupportSolution out;
  if (sol.status != LpStatus::kOptimal) return out;
  out.c = Vec(v);
  for (std::size_t j = 0; j < v; ++j) out.c[j] = sol.x[j] - sol.x[v + j];
  out.e = sol.x[2 * v];
  out.ok = true;
  return out;
}

}  // namespace

MinimaxFitResult minimax_fit(const Mat& design, const Vec& targets,
                             const JobControl* control) {
  const std::size_t k_samples = design.rows();
  const std::size_t v = design.cols();
  SCS_REQUIRE(k_samples >= 1 && v >= 1, "minimax_fit: empty problem");
  SCS_REQUIRE(targets.size() == k_samples, "minimax_fit: target size mismatch");

  MinimaxFitResult result;

  // A fit that starts preempted ends preempted: bail before the first
  // normal-equation solve (mid-loop stops are handled below).
  if (stop_requested(control)) {
    result.ok = false;
    result.note = "preempted before fitting";
    result.coefficients = Vec(v, 0.0);
    result.error = std::numeric_limits<double>::infinity();
    return result;
  }

  // Non-finite targets (upstream evaluation blow-ups, injected NaNs) poison
  // every normal-equation solve; surface a structured failure instead.
  for (std::size_t i = 0; i < k_samples; ++i) {
    if (!std::isfinite(targets[i])) {
      result.ok = false;
      result.note = "non-finite target at sample " + std::to_string(i);
      result.coefficients = Vec(v, 0.0);
      result.error = std::numeric_limits<double>::infinity();
      return result;
    }
  }

  // ---- Stage 1: Lawson IRLS toward the Chebyshev solution.
  TraceSpan lawson_span("minimax.lawson");
  Vec w(k_samples, 1.0 / static_cast<double>(k_samples));
  LinearSolveReport ls = weighted_ls(design, targets, &w);
  if (!ls.ok()) {
    result.ok = false;
    result.note = "weighted least-squares core failed even with "
                  "regularization";
    result.coefficients = Vec(v, 0.0);
    result.error = targets.max_abs();
    return result;
  }
  Vec c = std::move(ls.x);
  Vec r(k_samples);
  double prev_e = std::numeric_limits<double>::infinity();
  for (int it = 0; it < kLawsonIterations; ++it) {
    if (stop_requested(control)) {
      result.note = "preempted during Lawson refinement; kept last iterate";
      break;
    }
    const double e = residuals(design, targets, c, r);
    result.lawson_iterations = it + 1;
    if (e < 1e-14) break;  // exact interpolation
    if (std::fabs(prev_e - e) < 1e-12 * std::max(1.0, e)) break;
    prev_e = e;
    // Lawson update: w_i <- w_i * |r_i|, renormalized.
    double sum = 0.0;
    for (std::size_t i = 0; i < k_samples; ++i) {
      w[i] *= std::fabs(r[i]);
      sum += w[i];
    }
    if (sum <= 0.0) break;
    for (auto& wi : w) wi /= sum;
    LinearSolveReport step = weighted_ls(design, targets, &w);
    if (!step.ok()) {
      // Keep the last good iterate; the exchange stage can still refine it.
      result.note = "Lawson step " + std::to_string(it) +
                    " lost the normal equations; kept previous iterate";
      break;
    }
    c = std::move(step.x);
  }

  lawson_span.close();

  // ---- Stage 2: exchange refinement with exact support LPs (one lp.solve
  // span per round).
  TraceSpan exchange_span("minimax.exchange");
  double e_full = residuals(design, targets, c, r);
  std::vector<std::size_t> idx(k_samples);
  std::set<std::size_t> support;
  {
    // Seed with the samples of largest residual.
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    const std::size_t seed =
        std::min<std::size_t>(k_samples, 3 * (v + 1));
    std::partial_sort(idx.begin(), idx.begin() + seed, idx.end(),
                      [&r](std::size_t a, std::size_t b) {
                        return std::fabs(r[a]) > std::fabs(r[b]);
                      });
    support.insert(idx.begin(), idx.begin() + seed);
  }

  double e_support = 0.0;
  Vec r2(k_samples);
  for (int round = 0; round < kExchangeRounds; ++round) {
    if (stop_requested(control)) {
      result.note = "preempted during exchange refinement; kept best iterate";
      break;
    }
    result.exchange_rounds = round + 1;
    const std::vector<std::size_t> sup(support.begin(), support.end());
    const SupportSolution ss =
        solve_support_lp(design, targets, sup, control);
    if (!ss.ok) break;  // fall back to the best iterate found so far
    const double e2 = residuals(design, targets, ss.c, r2);
    if (e2 < e_full) {
      c = ss.c;
      r = r2;
      e_full = e2;
    }
    e_support = ss.e;
    // e_support is a lower bound on the scenario optimum (subset problem);
    // when the achieved full error matches it, the solution is LP-optimal.
    if (e2 <= ss.e + kExchangeTol) {
      c = ss.c;
      r = r2;
      e_full = e2;
      result.exact = true;
      break;
    }
    // Add the worst violators to the support.
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    const std::size_t add = std::min<std::size_t>(
        k_samples, static_cast<std::size_t>(kExchangeAddPerRound));
    std::partial_sort(idx.begin(), idx.begin() + add, idx.end(),
                      [&r2](std::size_t a, std::size_t b) {
                        return std::fabs(r2[a]) > std::fabs(r2[b]);
                      });
    bool grew = false;
    for (std::size_t i = 0; i < add; ++i)
      grew |= support.insert(idx[i]).second;
    if (!grew) break;  // support saturated; e_full is our best answer
  }

  exchange_span.close();

  result.coefficients = c;
  result.error = e_full;
  result.support_error = e_support;
  // Report the active samples (residual within tolerance of the max).
  for (std::size_t i = 0; i < k_samples; ++i)
    if (std::fabs(r[i]) >= e_full - 1e-9 * std::max(1.0, e_full))
      result.support.push_back(i);
  return result;
}

MinimaxFitResult least_squares_fit(const Mat& design, const Vec& targets) {
  SCS_REQUIRE(design.rows() >= 1 && design.cols() >= 1,
              "least_squares_fit: empty problem");
  SCS_REQUIRE(targets.size() == design.rows(),
              "least_squares_fit: target size mismatch");
  MinimaxFitResult out;
  out.ok = false;
  const LinearSolveReport report = weighted_ls(design, targets, nullptr);
  if (!report.ok()) {
    out.coefficients = Vec(design.cols(), 0.0);
    out.error = std::numeric_limits<double>::infinity();
    out.note = "least-squares solve failed";
    return out;
  }
  out.ok = true;
  out.coefficients = report.x;
  Vec r(design.rows());
  out.error = residuals(design, targets, out.coefficients, r);
  out.note = "least squares (no PAC guarantee)";
  return out;
}

}  // namespace scs
