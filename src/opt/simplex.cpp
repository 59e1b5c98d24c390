#include "opt/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "math/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

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

/// Pricing, ratio-test and degeneracy tolerance.
constexpr double kTol = 1e-9;

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

/// The indices i < n with v[i] != 0, ascending, written to `out` (room for
/// n) without a branch per index; returns their count. The loops below skip
/// such zeros, and their pattern is too irregular to predict.
std::size_t nonzeros(const double* v, std::size_t n, std::size_t* out) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[count] = i;
    count += v[i] != 0.0;
  }
  return count;
}

/// Marks a dense column of B^{-1}, and a row of B^{-1} that holds no unit
/// column's nonzero.
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// The basis inverse B^{-1} (m x m) as a scaled permutation plus its few
/// dense columns. A *unit column* of B^{-1} has exactly one nonzero: while
/// the single-nonzero column a e_r of [A | I] is basic at row p, column r of
/// B^{-1} is (1/a) e_p. Each unit column keeps the row and value of its
/// nonzero; every other, *dense* column lives in one slot of an m x cap
/// block. On the support LP every column of [A | I] but the 2v + 1
/// coefficient and error columns is a slack or an artificial (a = +-1), so
/// at most 2v + 1 columns of B^{-1} are dense.
///
/// Every read and update has the bits of the same operation on the dense
/// matrix. A dense loop's terms with a zero factor from a unit column add
/// +-0 to a sum or to an element, which changes nothing but the sign of a
/// zero, and a sign of a zero inside B^{-1} reaches no comparison and no
/// output (the duals and x_B start from +0, and every product that could
/// carry it is skipped or added to a nonzero).
class BasisInverse {
 public:
  /// The identity: every column unit.
  explicit BasisInverse(std::size_t m)
      : m_(m), unit_row_(m), row_unit_(m), unit_value_(m, 1.0),
        slot_(m, kNone), block_(m, 0.0), split_(m), rows_(m) {
    for (std::size_t i = 0; i < m; ++i) unit_row_[i] = row_unit_[i] = i;
  }

  std::size_t dense_count() const { return cols_.size(); }

  /// B^{-1}(i, k).
  double entry(std::size_t i, std::size_t k) const {
    if (slot_[k] != kNone) return row(i)[slot_[k]];
    return unit_row_[k] == i ? unit_value_[i] : 0.0;
  }

  /// Lays x out in the dense-column schedule that row_dot walks: xs[4q + j]
  /// is x at lane j's q-th dense column, 0 where that lane has none. xs has
  /// room for m + 3 entries.
  void gather(const double* x, double* xs) {
    schedule();
    for (std::size_t p = 0; p < sched_.size(); ++p)
      xs[p] = sched_[p] == cap_ ? 0.0 : x[cols_[sched_[p]]];
  }

  /// simd::dot(B^{-1} row i, x, m), bit for bit, with xs = gather(x): lane
  /// j sums the terms of the columns k = j (mod 4) in ascending k from +0,
  /// and the lanes combine as (l0 + l1) + (l2 + l3). Only the dense columns
  /// and row i's unit column are visited; every other term has a zero
  /// factor, and adding +-0 to a lane changes nothing, as a lane starts at
  /// +0 and never becomes -0. The schedule walks the four lanes in step, one
  /// dense column each (the zero slot where a lane has run out), and row i's
  /// unit entry joins its lane after the lane's dense columns below it.
  double row_dot(std::size_t i, const double* x, const double* xs) const {
    const double* ri = row(i);
    const std::size_t* s = sched_.data();
    const std::size_t u = row_unit_[i];
    const std::size_t quads = sched_.size() / 4;
    const std::size_t split = u == kNone ? quads : split_[i];
    double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
    std::size_t q = 0;
    for (; q < split; ++q, s += 4, xs += 4) {
      l0 += ri[s[0]] * xs[0];
      l1 += ri[s[1]] * xs[1];
      l2 += ri[s[2]] * xs[2];
      l3 += ri[s[3]] * xs[3];
    }
    if (u != kNone) {
      // Adding +0 to the other three lanes leaves them as they are.
      const double t = unit_value_[i] * x[u];
      const std::size_t j = u & 3;
      l0 += j == 0 ? t : 0.0;
      l1 += j == 1 ? t : 0.0;
      l2 += j == 2 ? t : 0.0;
      l3 += j == 3 ? t : 0.0;
    }
    for (; q < quads; ++q, s += 4, xs += 4) {
      l0 += ri[s[0]] * xs[0];
      l1 += ri[s[1]] * xs[1];
      l2 += ri[s[2]] * xs[2];
      l3 += ri[s[3]] * xs[3];
    }
    return (l0 + l1) + (l2 + l3);
  }

  /// y = matvec_t(B^{-1}, c), bit for bit: the rows with c_i != 0 are added
  /// in ascending order, so every y_k receives its terms in row order from
  /// +0. A unit column's y_k has its one term. `yc` is scratch of m.
  void transpose_times(const double* c, double* yc, Vec& y) {
    const std::size_t w = cols_.size();
    y.fill(0.0);
    std::fill(yc, yc + w, 0.0);
    const std::size_t count = nonzeros(c, m_, rows_.data());
    for (std::size_t r = 0; r < count; ++r) {
      const std::size_t i = rows_[r];
      const double ci = c[i];
      simd::axpy(yc, ci, row(i), w);
      if (const std::size_t u = row_unit_[i]; u != kNone)
        y[u] += ci * unit_value_[i];
    }
    for (std::size_t t = 0; t < w; ++t) y[cols_[t]] = yc[t];
  }

  /// d = (column k of B^{-1}) * a.
  void scaled_column(std::size_t k, double a, double* d) const {
    if (slot_[k] == kNone) {
      const std::size_t p = unit_row_[k];
      std::fill(d, d + m_, 0.0);
      d[p] = unit_value_[p] * a;
      return;
    }
    const std::size_t t = slot_[k];
    for (std::size_t i = 0; i < m_; ++i) d[i] = row(i)[t] * a;
  }

  /// The elementary pivot on row `leave` with direction d: row `leave` is
  /// divided by d[leave], and d[i] times it is subtracted from every other
  /// row with d[i] != 0. A unit column whose nonzero is not in row `leave`
  /// has a zero there, so both steps leave it unit; the one whose nonzero is
  /// in row `leave` turns dense first. `enter_row` is r when the entering
  /// column is a e_r, else kNone.
  void pivot(std::size_t leave, const double* d, std::size_t enter_row) {
    if (const std::size_t u = row_unit_[leave]; u != kNone) make_dense(u);
    const std::size_t w = cols_.size();
    double* const lrow = row(leave);
    const double piv = d[leave];
    for (std::size_t t = 0; t < w; ++t) lrow[t] /= piv;
    const std::size_t count = nonzeros(d, m_, rows_.data());
    for (std::size_t r = 0; r < count; ++r) {
      const std::size_t i = rows_[r];
      if (i == leave) continue;
      simd::axpy(row(i), -d[i], lrow, w);
    }
    // An entering a e_r leaves column r at (1/a) e_leave in exact
    // arithmetic. For a = +-1 that holds in floating point too (x / (+-x)
    // is +-1 and x - (+-x)(+-1) is +0), but not for every a: check.
    if (enter_row != kNone) try_unit(enter_row);
  }

 private:
  /// Row i of the block: cap_ slots, then the zero slot.
  double* row(std::size_t i) { return block_.data() + i * (cap_ + 1); }
  const double* row(std::size_t i) const {
    return block_.data() + i * (cap_ + 1);
  }

  /// Rebuild the schedule after the dense columns changed: one sweep over
  /// the columns in ascending order deals each dense column to its lane and
  /// counts, for each unit column, the dense columns of its lane below it.
  void schedule() {
    if (!stale_) return;
    stale_ = false;
    std::size_t count[4] = {0, 0, 0, 0};
    for (std::size_t k = 0; k < m_; ++k) {
      if (slot_[k] == kNone)
        split_[unit_row_[k]] = count[k & 3];
      else
        ++count[k & 3];
    }
    const std::size_t quads =
        std::max(std::max(count[0], count[1]), std::max(count[2], count[3]));
    sched_.assign(4 * quads, cap_);
    std::size_t next[4] = {0, 1, 2, 3};
    for (std::size_t k = 0; k < m_; ++k) {
      if (slot_[k] == kNone) continue;
      sched_[next[k & 3]] = slot_[k];
      next[k & 3] += 4;
    }
  }

  /// Move unit column u into a new dense slot.
  void make_dense(std::size_t u) {
    const std::size_t p = unit_row_[u];
    if (cols_.size() == cap_) grow();
    const std::size_t t = cols_.size();
    cols_.push_back(u);
    slot_[u] = t;
    for (std::size_t i = 0; i < m_; ++i) row(i)[t] = 0.0;
    row(p)[t] = unit_value_[p];
    unit_row_[u] = kNone;
    row_unit_[p] = kNone;
    stale_ = true;
  }

  /// Make dense column k a unit column if it has exactly one nonzero, in a
  /// row that holds no unit column's nonzero yet.
  void try_unit(std::size_t k) {
    const std::size_t t = slot_[k];
    if (t == kNone) return;
    std::size_t p = kNone;
    for (std::size_t i = 0; i < m_; ++i) {
      if (row(i)[t] == 0.0) continue;
      if (p != kNone) return;
      p = i;
    }
    if (p == kNone || row_unit_[p] != kNone) return;
    unit_row_[k] = p;
    row_unit_[p] = k;
    unit_value_[p] = row(p)[t];
    slot_[k] = kNone;
    // Free slot t: the last slot's column moves into it.
    const std::size_t last = cols_.size() - 1;
    if (t != last) {
      for (std::size_t i = 0; i < m_; ++i) row(i)[t] = row(i)[last];
      cols_[t] = cols_[last];
      slot_[cols_[t]] = t;
    }
    cols_.pop_back();
    stale_ = true;
  }

  /// Double the block's slot capacity (at most m). Slot cap_ of every row
  /// is the zero slot the schedule pads with.
  void grow() {
    const std::size_t cap = std::min(m_, std::max<std::size_t>(8, 2 * cap_));
    std::vector<double> block(m_ * (cap + 1), 0.0);
    for (std::size_t i = 0; i < m_; ++i)
      std::copy(row(i), row(i) + cols_.size(), block.begin() + i * (cap + 1));
    block_.swap(block);
    cap_ = cap;
    stale_ = true;
  }

  std::size_t m_;
  // unit_row_[k]: the row of unit column k's nonzero, or kNone if column k
  // is dense; row_unit_[i]: the unit column whose nonzero is in row i, or
  // kNone; unit_value_[i]: that nonzero.
  std::vector<std::size_t> unit_row_, row_unit_;
  std::vector<double> unit_value_;
  // Dense columns: cols_[t] is the column in slot t, slot_[k] the slot of
  // column k (kNone for a unit column), and block_ the slot values, row
  // major with cap_ + 1 per row, the last always 0.
  std::vector<std::size_t> cols_, slot_;
  std::vector<double> block_;
  std::size_t cap_ = 0;
  // row_dot's schedule, rebuilt when stale_: sched_[4q + j] is the slot of
  // lane j's q-th dense column (cap_ when the lane has none), and split_[i]
  // the number of dense columns below row i's unit column in its lane.
  std::vector<std::size_t> sched_, split_;
  bool stale_ = true;
  std::vector<std::size_t> rows_;  // scratch: the rows a loop visits
};

/// Revised-simplex core over a PhaseLp. The basis, its inverse and the work
/// vectors live across both phases of one solve.
///
/// Per-pivot work follows the nonzeros of the constraint matrix and of
/// B^{-1}: basis membership is a flag per column, pricing walks each
/// column's nonzeros, a single-nonzero entering column reads its direction
/// off one column of B^{-1}, the ratio test forms x_B only on the rows it
/// compares, and every product with B^{-1} visits only its dense columns
/// and one unit entry per row, so a pivot costs O(m * dense columns) rather
/// than O(m^2). Each of these computes the same terms in the same order as
/// the dense loops it stands for, minus the products with a zero factor,
/// which can only flip the sign of a zero that no comparison distinguishes.
/// Pivots and bits therefore match dense pricing over a dense inverse
/// whenever the data are finite.
class SimplexCore {
 public:
  SimplexCore(const PhaseLp& lp, const LpOptions& options)
      : lp_(lp),
        m_(lp.rows),
        n_(lp.cols),
        options_(options),
        basis_(m_),
        in_basis_(n_, 0),
        inv_(m_),
        cb_(m_),
        y_(m_),
        d_(m_),
        col_(m_),
        scratch_(m_ + 3),
        rows_(m_) {
    // Start from the all-artificial basis.
    for (std::size_t i = 0; i < m_; ++i) {
      basis_[i] = n_ - m_ + i;
      in_basis_[basis_[i]] = 1;
    }
  }

  const std::vector<std::size_t>& basis() const { return basis_; }
  const BasisInverse& inverse() const { return inv_; }
  bool in_basis(std::size_t j) const { return in_basis_[j] != 0; }

  void restore(const std::vector<std::size_t>& basis,
               const BasisInverse& inverse) {
    for (const std::size_t j : basis_) in_basis_[j] = 0;
    basis_ = basis;
    inv_ = inverse;
    for (const std::size_t j : basis_) in_basis_[j] = 1;
  }

  /// Run under costs `c` until optimal or stopped; `iterations_used` counts
  /// the pivots made.
  LpStatus run(const Vec& c, bool force_bland, int* iterations_used) {
    int degenerate_streak = 0;
    for (int it = 0;; ++it) {
      *iterations_used = it;
      // Job-level preemption, checked coarsely to keep the loop lean.
      if ((it & 63) == 0 && stop_requested(options_.control))
        return options_.control->cancelled() ? LpStatus::kCancelled
                                             : LpStatus::kTimeLimit;
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
      degenerate_streak = (best_ratio <= kTol) ? degenerate_streak + 1 : 0;
      if (metrics_enabled()) {
        static Counter& pivots =
            MetricsRegistry::instance().counter("simplex.pivots");
        static Counter& dense =
            MetricsRegistry::instance().counter("simplex.dense_columns");
        pivots.add(1);
        dense.add(inv_.dense_count());
      }
      pivot(leave, enter);
    }
  }

  /// Row i of B^{-1} A_j, summed over column j's nonzeros in row order.
  double tableau_entry(std::size_t i, std::size_t j) const {
    double dij = 0.0;
    for (std::size_t p = lp_.start[j]; p < lp_.start[j + 1]; ++p)
      dij += inv_.entry(i, lp_.row[p]) * lp_.value[p];
    return dij;
  }

  /// Bring column `enter` into the basis at row `leave`.
  void pivot_in(std::size_t leave, std::size_t enter) {
    direction(enter);
    pivot(leave, enter);
  }

  /// x_B = B^{-1} b, with the bits of matvec(B^{-1}, b).
  Vec basic_values() {
    Vec xb(m_);
    inv_.gather(lp_.b.begin(), scratch_.begin());
    for (std::size_t i = 0; i < m_; ++i)
      xb[i] = inv_.row_dot(i, lp_.b.begin(), scratch_.begin());
    return xb;
  }

  /// y = c_B' B^{-1}, with the bits of matvec_t(B^{-1}, c_B).
  const Vec& duals(const Vec& c) {
    for (std::size_t i = 0; i < m_; ++i) cb_[i] = c[basis_[i]];
    inv_.transpose_times(cb_.begin(), scratch_.begin(), y_);
    return y_;
  }

 private:
  /// Entering column, or n_ when every reduced cost r_j = c_j - y'A_j is
  /// at least -kTol.
  std::size_t price(const Vec& c, bool bland) const {
    std::size_t enter = n_;
    double best = -kTol;
    for (std::size_t j = 0; j < n_; ++j) {
      if (in_basis_[j] != 0) continue;
      double rj = c[j];
      for (std::size_t p = lp_.start[j]; p < lp_.start[j + 1]; ++p)
        rj -= y_[lp_.row[p]] * lp_.value[p];
      if (bland) {
        if (rj < -kTol) return j;
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
      // Single-nonzero column a_k e_k: d_i = B^{-1}(i, k) * a_k, the only
      // nonzero term of row i's dot product.
      inv_.scaled_column(lp_.row[p0], lp_.value[p0], d_.begin());
      return;
    }
    col_.fill(0.0);
    for (std::size_t p = p0; p < p1; ++p) col_[lp_.row[p]] = lp_.value[p];
    inv_.gather(col_.begin(), scratch_.begin());
    for (std::size_t i = 0; i < m_; ++i)
      d_[i] = inv_.row_dot(i, col_.begin(), scratch_.begin());
  }

  /// Leaving row by the minimum ratio x_B[i] / d_i over d_i > kTol (ties to
  /// the smaller basic index), or m_ when no row limits the step.
  std::size_t ratio_test(double* best_ratio) {
    std::size_t leave = m_;
    double best = std::numeric_limits<double>::infinity();
    inv_.gather(lp_.b.begin(), scratch_.begin());
    std::size_t count = 0;
    for (std::size_t i = 0; i < m_; ++i) {
      rows_[count] = i;
      count += d_[i] > kTol;
    }
    for (std::size_t r = 0; r < count; ++r) {
      const std::size_t i = rows_[r];
      const double xb = inv_.row_dot(i, lp_.b.begin(), scratch_.begin());
      const double ratio = xb / d_[i];
      if (ratio < best - kTol ||
          (ratio < best + kTol &&
           (leave == m_ || basis_[i] < basis_[leave]))) {
        best = ratio;
        leave = i;
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
    const std::size_t p0 = lp_.start[enter];
    inv_.pivot(leave, d_.begin(),
               lp_.start[enter + 1] - p0 == 1 ? lp_.row[p0] : kNone);
  }

  const PhaseLp& lp_;
  std::size_t m_, n_;
  const LpOptions& options_;
  std::vector<std::size_t> basis_;
  std::vector<char> in_basis_;
  BasisInverse inv_;
  // Basic costs, duals, direction, scattered entering column, and scratch
  // for BasisInverse (slot-ordered).
  Vec cb_, y_, d_, col_, scratch_;
  std::vector<std::size_t> rows_;  // scratch: the rows a loop visits
};

/// Run one phase; when Dantzig pricing reaches the pivot cap, rewind to the
/// phase's starting basis and rerun under pure Bland's rule (degenerate
/// pivots cannot cycle there).
LpStatus run_phase(SimplexCore& core, const Vec& c, int* total_iterations) {
  const std::vector<std::size_t> basis0 = core.basis();
  const BasisInverse inverse0 = core.inverse();
  int iters = 0;
  LpStatus st = core.run(c, false, &iters);
  *total_iterations += iters;
  if (st == LpStatus::kIterationLimit) {
    if (metrics_enabled()) {
      static Counter& restarts =
          MetricsRegistry::instance().counter("simplex.bland_restarts");
      restarts.add(1);
    }
    core.restore(basis0, inverse0);
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

  SimplexCore core(lp, options);
  {
    const LpStatus st = run_phase(core, cost, &sol.iterations);
    if (st == LpStatus::kIterationLimit || st == LpStatus::kTimeLimit ||
        st == LpStatus::kCancelled) {
      sol.status = st;
      return sol;
    }
  }
  // Check Phase-I objective.
  {
    const Vec xb = core.basic_values();
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
    const LpStatus st = run_phase(core, cost, &sol.iterations);
    if (st != LpStatus::kOptimal) {
      sol.status = st;
      return sol;
    }
  }

  // Extract the solution.
  const std::vector<std::size_t>& basis = core.basis();
  sol.x = Vec(n, 0.0);
  const Vec xb = core.basic_values();
  for (std::size_t i = 0; i < m; ++i) {
    if (basis[i] < n) sol.x[basis[i]] = std::max(0.0, xb[i]);
  }
  sol.objective = dot(problem.c, sol.x);
  Vec y = core.duals(cost);
  // Undo the row flips in the duals.
  for (std::size_t i = 0; i < m; ++i)
    if (problem.b[i] < 0.0) y[i] = -y[i];
  sol.dual = y;
  sol.basis = basis;
  sol.status = LpStatus::kOptimal;
  return sol;
}

}  // namespace scs
