#include "math/robust_solve.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace scs {

namespace {

/// Diagonal-regularization ladder: up to kMaxRegularizeAttempts retries
/// after a failed factorization, starting at kInitialShiftScale * max|diag|
/// (floored at an absolute tiny) and growing by kShiftGrowth per retry.
constexpr int kMaxRegularizeAttempts = 8;
constexpr double kShiftGrowth = 100.0;
constexpr double kInitialShiftScale = 1e-14;
/// Refinement triggers when ||b - A x||_inf > kRefineTol * (1 + ||b||_inf).
constexpr double kRefineTol = 1e-12;

bool all_finite(const Vec& v) {
  for (double x : v.data())
    if (!std::isfinite(x)) return false;
  return true;
}

double max_abs_diag(const Mat& a) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    d = std::max(d, std::fabs(a(i, i)));
  return d;
}

/// ||b - A x||_inf.
double residual_inf(const Mat& a, const Vec& b, const Vec& x) {
  Vec r = b;
  r -= matvec(a, x);
  return r.max_abs();
}

/// One round of iterative refinement against the *original* matrix, using
/// `factor` (possibly of the regularized matrix) for the correction.
/// Updates x and returns the final residual; sets `refined` when the
/// correction was kept.
double refine_once(const Mat& a, const Vec& b, Vec& x, const Cholesky& factor,
                   bool& refined) {
  refined = false;
  double res = residual_inf(a, b, x);
  if (res <= kRefineTol * (1.0 + b.max_abs())) return res;
  Vec r = b;
  r -= matvec(a, x);
  const Vec dx = factor.solve(r);
  if (!all_finite(dx)) return res;
  Vec x2 = x;
  x2 += dx;
  const double res2 = residual_inf(a, b, x2);
  if (res2 < res) {
    x = std::move(x2);
    res = res2;
    refined = true;
  }
  return res;
}

}  // namespace

RobustCholesky robust_cholesky(const Mat& a) {
  RobustCholesky out;
  out.factor = Cholesky(a);
  out.factor_attempts = 1;
  if (out.factor.ok()) {
    out.status = SolveStatus::kOk;
    return out;
  }
  double shift =
      std::max(kInitialShiftScale * std::max(1.0, max_abs_diag(a)), 1e-300);
  for (int k = 0; k < kMaxRegularizeAttempts; ++k) {
    Mat shifted = a;
    for (std::size_t i = 0; i < a.rows(); ++i) shifted(i, i) += shift;
    out.factor = Cholesky(shifted);
    ++out.factor_attempts;
    if (metrics_enabled()) {
      static Counter& retries = MetricsRegistry::instance().counter(
          "robust.cholesky_regularize_retries");
      retries.add(1);
    }
    if (out.factor.ok()) {
      out.status = SolveStatus::kRegularized;
      out.regularization = shift;
      return out;
    }
    shift *= kShiftGrowth;
  }
  out.status = SolveStatus::kFailed;
  return out;
}

LinearSolveReport robust_solve_spd(const Mat& a, const Vec& b) {
  SCS_REQUIRE(a.rows() == a.cols() && b.size() == a.rows(),
              "robust_solve_spd: shape mismatch");
  LinearSolveReport report;
  const RobustCholesky rc = robust_cholesky(a);
  report.factor_attempts = rc.factor_attempts;
  report.regularization = rc.regularization;
  if (!rc.ok()) return report;

  report.x = rc.factor.solve(b);
  if (!all_finite(report.x)) {
    report.status = SolveStatus::kFailed;
    return report;
  }
  report.residual_norm = refine_once(a, b, report.x, rc.factor, report.refined);
  if (report.refined && metrics_enabled()) {
    static Counter& refinements =
        MetricsRegistry::instance().counter("robust.refinements");
    refinements.add(1);
  }
  report.status = (rc.status == SolveStatus::kRegularized)
                      ? SolveStatus::kRegularized
                      : (report.refined ? SolveStatus::kRefined
                                        : SolveStatus::kOk);
  return report;
}

}  // namespace scs
