#include "opt/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "math/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace scs {

const char* to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "optimal";
    case LpStatus::kInfeasible:
      return "infeasible";
    case LpStatus::kUnbounded:
      return "unbounded";
    case LpStatus::kIterationLimit:
      return "iteration-limit";
    case LpStatus::kTimeLimit:
      return "time-limit";
    case LpStatus::kCancelled:
      return "cancelled";
  }
  return "?";
}

namespace {

/// The LP both phases solve: the rows whose b_i < 0 negated so that b >= 0,
/// and [A | I] in column-compressed form. Column j lists its nonzeros in
/// increasing row order; artificial column n + i is the unit column e_i.
struct PhaseLp {
  std::size_t rows = 0;
  std::size_t cols = 0;                // structural + artificial
  std::vector<std::size_t> start;      // cols + 1 offsets into row / value
  std::vector<std::size_t> row;
  std::vector<double> value;
  Vec b;
};

PhaseLp phase_lp(const Mat& a, const Vec& b) {
  const std::size_t m = a.rows(), n = a.cols();
  PhaseLp lp;
  lp.rows = m;
  lp.cols = n + m;
  lp.b = b;
  lp.start.assign(n + m + 1, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const double* ai = a.row_ptr(i);
    for (std::size_t j = 0; j < n; ++j)
      if (ai[j] != 0.0) ++lp.start[j + 1];
    lp.start[n + i + 1] = 1;
  }
  for (std::size_t j = 0; j < n + m; ++j) lp.start[j + 1] += lp.start[j];
  lp.row.resize(lp.start.back());
  lp.value.resize(lp.start.back());
  // Row-major fill: each column receives its entries in increasing row order.
  std::vector<std::size_t> next(lp.start.begin(), lp.start.end() - 1);
  for (std::size_t i = 0; i < m; ++i) {
    const double* ai = a.row_ptr(i);
    const bool flip = b[i] < 0.0;
    if (flip) lp.b[i] = -b[i];
    for (std::size_t j = 0; j < n; ++j) {
      if (ai[j] == 0.0) continue;
      lp.row[next[j]] = i;
      lp.value[next[j]++] = flip ? -ai[j] : ai[j];
    }
    lp.row[next[n + i]] = i;
    lp.value[next[n + i]++] = 1.0;
  }
  return lp;
}

/// Revised-simplex core over a PhaseLp. The basis inverse is kept densely
/// and refreshed by elementary pivots; the basis, its inverse and the work
/// vectors live across both phases of one solve.
///
/// Per-pivot work follows the nonzeros of the constraint matrix: basis
/// membership is a flag per column, pricing walks each column's nonzeros,
/// a unit entering column reads its direction straight off B^{-1}, and the
/// ratio test forms x_B only on the rows it compares. Each of these computes
/// the same terms in the same order as the dense loops it stands for, minus
/// the products with structural zeros, which can only flip the sign of a
/// zero that no comparison distinguishes. Pivots and bits therefore match
/// dense pricing whenever the data are finite.
class SimplexCore {
 public:
  SimplexCore(const PhaseLp& lp, const LpOptions& options,
              const Stopwatch& budget_sw)
      : lp_(lp),
        m_(lp.rows),
        n_(lp.cols),
        options_(options),
        budget_sw_(budget_sw),
        basis_(m_),
        in_basis_(n_, 0),
        binv_(Mat::identity(m_)),
        y_(m_),
        d_(m_),
        col_(m_) {
    // Start from the all-artificial basis.
    for (std::size_t i = 0; i < m_; ++i) {
      basis_[i] = n_ - m_ + i;
      in_basis_[basis_[i]] = 1;
    }
  }

  const std::vector<std::size_t>& basis() const { return basis_; }
  const Mat& binv() const { return binv_; }
  bool in_basis(std::size_t j) const { return in_basis_[j] != 0; }

  void restore(const std::vector<std::size_t>& basis, const Mat& binv) {
    for (const std::size_t j : basis_) in_basis_[j] = 0;
    basis_ = basis;
    binv_ = binv;
    for (const std::size_t j : basis_) in_basis_[j] = 1;
  }

  /// Run under costs `c` until optimal or stopped; `iterations_used` counts
  /// the pivots made.
  LpStatus run(const Vec& c, bool force_bland, int* iterations_used) {
    int degenerate_streak = 0;
    for (int it = 0;; ++it) {
      *iterations_used = it;
      // Wall-clock budget and job-level preemption, checked coarsely to keep
      // the loop lean.
      if ((it & 63) == 0) {
        if (options_.wall_clock_seconds > 0.0 &&
            budget_sw_.seconds() > options_.wall_clock_seconds)
          return LpStatus::kTimeLimit;
        if (options_.control != nullptr && options_.control->stop_requested())
          return options_.control->cancelled() ? LpStatus::kCancelled
                                               : LpStatus::kTimeLimit;
      }
      duals(c);
      // Pricing: Dantzig rule normally; Bland's rule after a degenerate
      // streak (or from the start, in the anti-cycling fallback) to
      // guarantee termination.
      const bool bland =
          force_bland || degenerate_streak > 2 * static_cast<int>(m_) + 20;
      const std::size_t enter = price(c, bland);
      if (enter == n_) return LpStatus::kOptimal;
      if (it >= options_.max_iterations) return LpStatus::kIterationLimit;

      direction(enter);
      double best_ratio = 0.0;
      const std::size_t leave = ratio_test(&best_ratio);
      if (leave == m_) return LpStatus::kUnbounded;
      degenerate_streak = (best_ratio <= options_.tol) ? degenerate_streak + 1
                                                       : 0;
      if (metrics_enabled()) {
        static Counter& pivots =
            MetricsRegistry::instance().counter("simplex.pivots");
        pivots.add(1);
      }
      pivot(leave, enter);
    }
  }

  /// Row i of B^{-1} A_j, summed over column j's nonzeros in row order.
  double tableau_entry(std::size_t i, std::size_t j) const {
    double dij = 0.0;
    for (std::size_t p = lp_.start[j]; p < lp_.start[j + 1]; ++p)
      dij += binv_(i, lp_.row[p]) * lp_.value[p];
    return dij;
  }

  /// Bring column `enter` into the basis at row `leave`.
  void pivot_in(std::size_t leave, std::size_t enter) {
    direction(enter);
    pivot(leave, enter);
  }

 private:
  /// y = c_B' B^{-1}, accumulated over the rows with c_B[i] != 0 in order.
  void duals(const Vec& c) {
    y_.fill(0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const double ci = c[basis_[i]];
      if (ci == 0.0) continue;
      simd::axpy(y_.begin(), ci, binv_.row_ptr(i), m_);
    }
  }

  /// Entering column, or n_ when every reduced cost r_j = c_j - y'A_j is
  /// at least -tol.
  std::size_t price(const Vec& c, bool bland) const {
    const double tol = options_.tol;
    std::size_t enter = n_;
    double best = -tol;
    for (std::size_t j = 0; j < n_; ++j) {
      if (in_basis_[j] != 0) continue;
      double rj = c[j];
      for (std::size_t p = lp_.start[j]; p < lp_.start[j + 1]; ++p)
        rj -= y_[lp_.row[p]] * lp_.value[p];
      if (bland) {
        if (rj < -tol) return j;
      } else if (rj < best) {
        best = rj;
        enter = j;
      }
    }
    return enter;
  }

  /// d = B^{-1} A_enter.
  void direction(std::size_t enter) {
    const std::size_t p0 = lp_.start[enter], p1 = lp_.start[enter + 1];
    if (p1 - p0 == 1) {
      // Unit column a_k e_k: d_i = B^{-1}(i, k) * a_k, the only nonzero term
      // of row i's dot product.
      const std::size_t k = lp_.row[p0];
      const double ak = lp_.value[p0];
      for (std::size_t i = 0; i < m_; ++i) d_[i] = binv_(i, k) * ak;
      return;
    }
    col_.fill(0.0);
    for (std::size_t p = p0; p < p1; ++p) col_[lp_.row[p]] = lp_.value[p];
    for (std::size_t i = 0; i < m_; ++i)
      d_[i] = simd::dot(binv_.row_ptr(i), col_.begin(), m_);
  }

  /// Leaving row by the minimum ratio x_B[i] / d_i over d_i > tol (ties to
  /// the smaller basic index), or m_ when no row limits the step.
  std::size_t ratio_test(double* best_ratio) const {
    const double tol = options_.tol;
    std::size_t leave = m_;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m_; ++i) {
      if (d_[i] > tol) {
        const double xb = simd::dot(binv_.row_ptr(i), lp_.b.begin(), m_);
        const double ratio = xb / d_[i];
        if (ratio < best - tol ||
            (ratio < best + tol &&
             (leave == m_ || basis_[i] < basis_[leave]))) {
          best = ratio;
          leave = i;
        }
      }
    }
    *best_ratio = best;
    return leave;
  }

  /// Swap `enter` in at row `leave` and update B^{-1} with direction d_.
  void pivot(std::size_t leave, std::size_t enter) {
    in_basis_[basis_[leave]] = 0;
    in_basis_[enter] = 1;
    basis_[leave] = enter;
    double* const lrow = binv_.row_ptr(leave);
    const double piv = d_[leave];
    for (std::size_t j = 0; j < m_; ++j) lrow[j] /= piv;
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == leave) continue;
      const double f = d_[i];
      if (f == 0.0) continue;
      simd::axpy(binv_.row_ptr(i), -f, lrow, m_);
    }
  }

  const PhaseLp& lp_;
  std::size_t m_, n_;
  const LpOptions& options_;
  const Stopwatch& budget_sw_;
  std::vector<std::size_t> basis_;
  std::vector<char> in_basis_;
  Mat binv_;
  Vec y_, d_, col_;  // duals, direction, scattered entering column
};

/// Run one phase; when Dantzig pricing exhausts the iteration budget and the
/// fallback is enabled, rewind to the phase's starting basis and rerun under
/// pure Bland's rule (degenerate pivots cannot cycle there).
LpStatus run_phase(SimplexCore& core, const Vec& c, const LpOptions& options,
                   int* total_iterations) {
  const std::vector<std::size_t> basis0 = core.basis();
  const Mat binv0 = core.binv();
  int iters = 0;
  LpStatus st = core.run(c, false, &iters);
  *total_iterations += iters;
  if (st == LpStatus::kIterationLimit && options.bland_restart) {
    if (metrics_enabled()) {
      static Counter& restarts =
          MetricsRegistry::instance().counter("simplex.bland_restarts");
      restarts.add(1);
    }
    core.restore(basis0, binv0);
    st = core.run(c, true, &iters);
    *total_iterations += iters;
  }
  return st;
}

}  // namespace

LpSolution solve_lp(const LpProblem& problem, const LpOptions& options) {
  const std::size_t m = problem.a.rows();
  const std::size_t n = problem.a.cols();
  SCS_REQUIRE(problem.b.size() == m && problem.c.size() == n,
              "solve_lp: dimension mismatch");
  TraceSpan span("lp.solve");
  if (metrics_enabled()) {
    static Counter& solves =
        MetricsRegistry::instance().counter("simplex.solves");
    solves.add(1);
  }
  LpSolution sol;

  const PhaseLp lp = phase_lp(problem.a, problem.b);

  // ---- Phase I: minimize the sum of artificials.
  Vec cost(n + m, 0.0);
  for (std::size_t i = 0; i < m; ++i) cost[n + i] = 1.0;

  Stopwatch budget_sw;
  SimplexCore core(lp, options, budget_sw);
  {
    const LpStatus st = run_phase(core, cost, options, &sol.iterations);
    if (st == LpStatus::kIterationLimit || st == LpStatus::kTimeLimit ||
        st == LpStatus::kCancelled) {
      sol.status = st;
      return sol;
    }
  }
  // Check Phase-I objective.
  {
    const Vec xb = matvec(core.binv(), lp.b);
    double art_sum = 0.0;
    for (std::size_t i = 0; i < m; ++i)
      if (core.basis()[i] >= n) art_sum += xb[i];
    if (art_sum > 1e-7) {
      sol.status = LpStatus::kInfeasible;
      return sol;
    }
  }
  // Drive remaining (degenerate) artificials out of the basis if possible:
  // pivot in the first non-basic structural column with a nonzero entry in
  // row i. If none exists the row is redundant; the artificial stays basic
  // at level zero, which Phase II tolerates (its cost pins it there).
  for (std::size_t i = 0; i < m; ++i) {
    if (core.basis()[i] < n) continue;
    for (std::size_t j = 0; j < n; ++j) {
      if (core.in_basis(j)) continue;
      if (std::fabs(core.tableau_entry(i, j)) > 1e-8) {
        core.pivot_in(i, j);
        break;
      }
    }
  }

  // ---- Phase II on the original objective (artificial columns frozen).
  for (std::size_t j = 0; j < n; ++j) cost[j] = problem.c[j];
  // Large cost pins any residual artificial at zero.
  double big = 1.0;
  for (std::size_t j = 0; j < n; ++j) big += std::fabs(problem.c[j]);
  for (std::size_t i = 0; i < m; ++i) cost[n + i] = 1e6 * big;

  {
    const LpStatus st = run_phase(core, cost, options, &sol.iterations);
    if (st != LpStatus::kOptimal) {
      sol.status = st;
      return sol;
    }
  }

  // Extract the solution.
  const std::vector<std::size_t>& basis = core.basis();
  sol.x = Vec(n, 0.0);
  const Vec xb = matvec(core.binv(), lp.b);
  for (std::size_t i = 0; i < m; ++i) {
    if (basis[i] < n) sol.x[basis[i]] = std::max(0.0, xb[i]);
  }
  sol.objective = dot(problem.c, sol.x);
  Vec cb(m);
  for (std::size_t i = 0; i < m; ++i) cb[i] = cost[basis[i]];
  Vec y = matvec_t(core.binv(), cb);
  // Undo the row flips in the duals.
  for (std::size_t i = 0; i < m; ++i)
    if (problem.b[i] < 0.0) y[i] = -y[i];
  sol.dual = y;
  sol.basis = basis;
  sol.status = LpStatus::kOptimal;
  return sol;
}

}  // namespace scs
