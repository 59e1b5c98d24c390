#include "opt/sdp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "math/cholesky.hpp"
#include "math/eigen_sym.hpp"
#include "math/robust_solve.hpp"
#include "math/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/fault_injector.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace scs {

const char* to_string(SdpStatus status) {
  switch (status) {
    case SdpStatus::kConverged:
      return "converged";
    case SdpStatus::kMaxIterations:
      return "max-iterations";
    case SdpStatus::kNumericalFailure:
      return "numerical-failure";
    case SdpStatus::kInfeasible:
      return "infeasible";
    case SdpStatus::kStalled:
      return "stalled";
    case SdpStatus::kTimeLimit:
      return "time-limit";
    case SdpStatus::kCancelled:
      return "cancelled";
  }
  return "?";
}

namespace {
/// Default for schur_parallel_threshold(): calibrated so bench_parallel's
/// sdp_schur workload (nl = 48, nc = 96, ~2^17.8) stays serial -- the pool
/// measured 0.74x there -- while large Gram systems still fan out.
constexpr std::size_t kParallelSchurFlops = std::size_t{1} << 19;
thread_local std::size_t g_schur_threshold = kParallelSchurFlops;
}  // namespace

std::size_t schur_parallel_threshold() { return g_schur_threshold; }
void set_schur_parallel_threshold(std::size_t flops) {
  g_schur_threshold = flops;
}
void reset_schur_parallel_threshold() {
  g_schur_threshold = kParallelSchurFlops;
}

namespace {

// Solver settings. Changing one changes answers, so it needs a bump of
// kBarrierStageRevision (store/stage_cache.cpp).
constexpr int kMaxIterations = 100;  // per run; each retry is a new run
constexpr double kTolFeasibility = 1e-7;
constexpr double kTolGap = 1e-7;
constexpr double kStepFraction = 0.98;  // of the step to the PSD boundary
/// Stall detector: a run whose merit max(p_inf, d_inf, gap) makes no
/// relative improvement of kStallImprovement over kStallWindow consecutive
/// iterations stops as kStalled instead of grinding to kMaxIterations.
constexpr int kStallWindow = 15;
constexpr double kStallImprovement = 0.05;
/// Retry-and-rescale after kStalled / kNumericalFailure: retry r restarts at
/// the base scale multiplied (r odd) or divided (r even) by
/// kRetryScaleFactor^ceil(r / 2).
constexpr int kMaxRetries = 2;
constexpr double kRetryScaleFactor = 8.0;

/// Per-block view of the constraints: which constraints touch this block,
/// and with which entries.
struct BlockIndex {
  // For each constraint touching the block: (constraint id, entry range in
  // the flattened entry arrays below).
  std::vector<std::size_t> constraint_ids;
  std::vector<std::size_t> entry_begin;  // size constraint_ids.size() + 1
  std::vector<std::size_t> rows, cols;
  std::vector<double> vals;
};

/// <A_i, M> with the symmetric-entry convention (off-diagonal entries count
/// twice). M need not be symmetric: the symmetrized value is used.
double inner_with_constraint(const BlockIndex& bi, std::size_t local,
                             const Mat& m) {
  double acc = 0.0;
  for (std::size_t e = bi.entry_begin[local]; e < bi.entry_begin[local + 1];
       ++e) {
    const std::size_t r = bi.rows[e];
    const std::size_t c = bi.cols[e];
    const double v = bi.vals[e];
    if (r == c)
      acc += v * m(r, r);
    else
      acc += v * (m(r, c) + m(c, r));
  }
  return acc;
}

/// Accumulate y-weighted constraint matrices into `out` (dense symmetric).
void accumulate_at(const BlockIndex& bi, const Vec& y, Mat& out) {
  for (std::size_t k = 0; k < bi.constraint_ids.size(); ++k) {
    const double yi = y[bi.constraint_ids[k]];
    if (yi == 0.0) continue;
    for (std::size_t e = bi.entry_begin[k]; e < bi.entry_begin[k + 1]; ++e) {
      const std::size_t r = bi.rows[e];
      const std::size_t c = bi.cols[e];
      const double v = bi.vals[e] * yi;
      out(r, c) += v;
      if (r != c) out(c, r) += v;
    }
  }
}

/// Largest step alpha in (0, 1] with X + alpha * dX positive definite,
/// found by geometric backtracking on Cholesky attempts; 0 when all 120
/// trials (down to 0.9^119 ~ 3.6e-6) fail. The trials reuse one matrix and
/// one factor per thread.
double psd_step_length(const Mat& x, const Mat& dx) {
  thread_local Mat trial;
  thread_local Cholesky factor{Mat()};
  double alpha = 1.0;
  for (int k = 0; k < 120; ++k) {
    trial = x;
    trial.axpy(alpha, dx);
    if (factor.refactor(trial)) return alpha;
    alpha *= 0.9;
  }
  return 0.0;
}

struct Residuals {
  Vec rp;               // b - A(X) - B f
  std::vector<Mat> rd;  // C - At(y) - S per block
  Vec rf;               // c_f - B' y
  double mu = 0.0;
};

/// delta >= max(0, -lambda_min(Z)) for one block of infeasibility_bound.
/// `z_abs` bounds |Z| entrywise including the terms that cancelled while Z
/// was summed from `terms` products; the allowance covers that summation
/// and the Cholesky backward error (Demmel: a factorization that completes
/// proves Z + E positive definite with ||E||_2 <= n (n + 1) u max|Z_ii|).
double block_slack(const Mat& z, double z_abs, std::size_t terms) {
  const double n = static_cast<double>(z.rows());
  const auto allowance = [&](double shift) {
    return n * (static_cast<double>(terms) + n + 2.0) *
           std::numeric_limits<double>::epsilon() * (z_abs + shift);
  };
  if (Cholesky(z).ok()) return allowance(0.0);
  // Indefinite (or singular): shift by the eigenvalue estimate plus the
  // allowance, and confirm the shift with a factorization that completes.
  double shift = std::max(0.0, -min_eigenvalue(z)) + allowance(0.0);
  for (int k = 0; k < 8 && shift > 0.0; ++k, shift *= 2.0) {
    Mat shifted = z;
    for (std::size_t i = 0; i < z.rows(); ++i) shifted(i, i) += shift;
    if (Cholesky(shifted).ok()) return shift + allowance(shift);
  }
  return std::numeric_limits<double>::infinity();  // no usable bound
}

/// Data-driven starting scale for the identity initial iterates.
double auto_scale(const SdpProblem& problem) {
  Vec b(problem.constraints.size());
  for (std::size_t i = 0; i < problem.constraints.size(); ++i)
    b[i] = problem.constraints[i].rhs;
  double data = b.max_abs();
  for (const auto& con : problem.constraints)
    for (const auto& e : con.entries) data = std::max(data, std::fabs(e.value));
  return 10.0 * std::max(1.0, std::sqrt(data));
}

/// One interior-point run from the identity iterates scaled by `scale`.
SdpSolution solve_sdp_once(const SdpProblem& problem, double scale,
                           const JobControl* control) {
  const std::size_t num_blocks = problem.block_dims.size();
  const std::size_t m = problem.constraints.size();
  const std::size_t s = problem.num_free;
  SCS_REQUIRE(num_blocks > 0, "solve_sdp: need at least one block");
  SCS_REQUIRE(m > 0, "solve_sdp: need at least one constraint");
  SCS_REQUIRE(problem.block_obj_weight.empty() ||
                  problem.block_obj_weight.size() == num_blocks,
              "solve_sdp: objective weight count mismatch");
  SCS_REQUIRE(problem.free_obj.empty() || problem.free_obj.size() == s,
              "solve_sdp: free objective size mismatch");

  SdpSolution sol;

  // Validate entries; reject structurally inconsistent empty rows.
  for (std::size_t i = 0; i < m; ++i) {
    const auto& con = problem.constraints[i];
    for (const auto& e : con.entries) {
      SCS_REQUIRE(e.block < num_blocks, "solve_sdp: entry block out of range");
      SCS_REQUIRE(e.row < problem.block_dims[e.block] &&
                      e.col < problem.block_dims[e.block],
                  "solve_sdp: entry index out of range");
    }
    for (const auto& [idx, coeff] : con.free_terms) {
      (void)coeff;
      SCS_REQUIRE(idx < s, "solve_sdp: free index out of range");
    }
    if (con.entries.empty() && con.free_terms.empty()) {
      if (std::fabs(con.rhs) > 1e-12) {
        sol.status = SdpStatus::kInfeasible;
        return sol;
      }
    }
  }

  // ---- Build per-block constraint indices.
  std::vector<BlockIndex> index(num_blocks);
  {
    // Group each constraint's entries by block.
    for (std::size_t i = 0; i < m; ++i) {
      // Collect blocks touched (small lists; linear scans are fine).
      std::vector<std::size_t> touched;
      for (const auto& e : problem.constraints[i].entries) {
        if (std::find(touched.begin(), touched.end(), e.block) ==
            touched.end())
          touched.push_back(e.block);
      }
      for (std::size_t blk : touched) {
        BlockIndex& bi = index[blk];
        if (bi.entry_begin.empty()) bi.entry_begin.push_back(0);
        bi.constraint_ids.push_back(i);
        for (const auto& e : problem.constraints[i].entries) {
          if (e.block != blk) continue;
          bi.rows.push_back(e.row);
          bi.cols.push_back(e.col);
          bi.vals.push_back(e.value);
        }
        bi.entry_begin.push_back(bi.rows.size());
      }
    }
    for (auto& bi : index)
      if (bi.entry_begin.empty()) bi.entry_begin.push_back(0);
  }

  // The Schur complement couples two constraints only through a block both
  // touch, so row i is exactly +0 left of its envelope: the first
  // constraint that shares a block with it (itself when it touches none).
  std::vector<std::size_t> envelope(m);
  for (std::size_t i = 0; i < m; ++i) envelope[i] = i;
  for (const BlockIndex& bi : index)
    for (const std::size_t i : bi.constraint_ids)
      envelope[i] = std::min(envelope[i], bi.constraint_ids.front());

  // Objective data.
  std::vector<double> cw(num_blocks, 0.0);
  if (!problem.block_obj_weight.empty()) cw = problem.block_obj_weight;
  Vec cf(s, 0.0);
  if (!problem.free_obj.empty()) cf = problem.free_obj;
  const double w_max = *std::max_element(cw.begin(), cw.end());

  // RHS vector and the free-variable columns B (m x s, dense; s is small).
  Vec b(m);
  for (std::size_t i = 0; i < m; ++i) b[i] = problem.constraints[i].rhs;
  Mat bmat(m, s);
  for (std::size_t i = 0; i < m; ++i)
    for (const auto& [idx, coeff] : problem.constraints[i].free_terms)
      bmat(i, idx) += coeff;

  // ---- Initial iterates.
  std::vector<Mat> x(num_blocks), sm(num_blocks);
  std::size_t total_dim = 0;
  for (std::size_t l = 0; l < num_blocks; ++l) {
    x[l] = Mat::identity(problem.block_dims[l]) * scale;
    sm[l] = Mat::identity(problem.block_dims[l]) * scale;
    total_dim += problem.block_dims[l];
  }
  Vec f(s, 0.0);
  Vec y(m, 0.0);

  const auto op_a = [&](const std::vector<Mat>& xs, const Vec& fs) {
    Vec out(m, 0.0);
    for (std::size_t l = 0; l < num_blocks; ++l) {
      const BlockIndex& bi = index[l];
      for (std::size_t k = 0; k < bi.constraint_ids.size(); ++k)
        out[bi.constraint_ids[k]] += inner_with_constraint(bi, k, xs[l]);
    }
    for (std::size_t i = 0; i < m; ++i)
      for (const auto& [idx, coeff] : problem.constraints[i].free_terms)
        out[i] += coeff * fs[idx];
    return out;
  };

  const auto bt_y = [&](const Vec& yv) {
    Vec out(s, 0.0);
    for (std::size_t i = 0; i < m; ++i)
      for (const auto& [idx, coeff] : problem.constraints[i].free_terms)
        out[idx] += coeff * yv[i];
    return out;
  };

  const auto compute_residuals = [&](Residuals& res) {
    res.rp = b - op_a(x, f);
    res.rd.assign(num_blocks, Mat());
    for (std::size_t l = 0; l < num_blocks; ++l) {
      Mat r = Mat::identity(problem.block_dims[l]) * cw[l];
      r -= sm[l];
      // r -= At(y)
      Vec neg_y = y;
      neg_y *= -1.0;
      accumulate_at(index[l], neg_y, r);
      res.rd[l] = std::move(r);
    }
    res.rf = cf - bt_y(y);
    double xs = 0.0;
    for (std::size_t l = 0; l < num_blocks; ++l) xs += frob_inner(x[l], sm[l]);
    res.mu = xs / static_cast<double>(total_dim);
  };

  const double b_norm = 1.0 + b.norm();

  // Stall detector state: the merit must drop by a relative
  // kStallImprovement at least once per kStallWindow iterations.
  double best_merit = std::numeric_limits<double>::infinity();
  int best_merit_iter = 0;

  Residuals res;
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    sol.iterations = iter + 1;
    if (metrics_enabled()) {
      static Counter& iterations =
          MetricsRegistry::instance().counter("sdp.iterations");
      iterations.add(1);
    }
    if (trace_enabled()) trace_instant("sdp.iteration");

    compute_residuals(res);
    const double p_infeas = res.rp.norm() / b_norm;
    double d_infeas = 0.0;
    for (std::size_t l = 0; l < num_blocks; ++l)
      d_infeas = std::max(d_infeas, res.rd[l].max_abs());
    d_infeas = std::max(d_infeas, res.rf.max_abs());
    const double gap = res.mu;

    sol.primal_infeasibility = p_infeas;
    sol.dual_infeasibility = d_infeas;
    sol.duality_gap = gap;

    if (p_infeas < kTolFeasibility && d_infeas < kTolFeasibility &&
        gap < kTolGap) {
      sol.status = SdpStatus::kConverged;
      break;
    }

    // Certified infeasibility. The bound is at most b'y / max(w_max,
    // ||B'y||), so one dot product gates the check, which rebuilds the
    // certificate from the problem data and factors each block once.
    if (const double by = dot(b, y); by > kInfeasibilitySize * w_max &&
        by > kInfeasibilitySize * std::max(w_max, bt_y(y).norm())) {
      const double bound = infeasibility_bound(problem, y);
      if (bound > kInfeasibilitySize) {
        sol.status = SdpStatus::kInfeasible;
        sol.infeasibility_bound = bound;
        if (metrics_enabled()) {
          static Counter& infeasible =
              MetricsRegistry::instance().counter("sdp.infeasible");
          infeasible.add(1);
        }
        if (trace_enabled()) trace_instant("sdp.infeasible");
        break;
      }
    }

    // Job-level preemption: a cancellation or job deadline stops the solve
    // here, mid-interior-point, instead of between pipeline stages.
    if (stop_requested(control)) {
      sol.status = control->cancelled() ? SdpStatus::kCancelled
                                        : SdpStatus::kTimeLimit;
      break;
    }

    // Stall detection on the merit max(p_inf, d_inf, gap).
    const double merit = std::max({p_infeas, d_infeas, gap});
    if (merit < best_merit * (1.0 - kStallImprovement)) {
      best_merit = merit;
      best_merit_iter = iter;
    } else if (iter - best_merit_iter >= kStallWindow) {
      sol.status = SdpStatus::kStalled;
      if (metrics_enabled()) {
        static Counter& stalls =
            MetricsRegistry::instance().counter("sdp.stalls");
        stalls.add(1);
      }
      break;
    }

    // Fault injection: a suppressed step makes no progress this iteration,
    // so a sustained fault surfaces through the stall detector above.
    if (fault_injection_enabled() &&
        FaultInjector::instance().should_fire(FaultSite::kSdpStall)) {
      if (iter + 1 == kMaxIterations) sol.status = SdpStatus::kMaxIterations;
      continue;
    }

    // ---- Factor S blocks and precompute S^{-1}, plus X for step lengths.
    std::vector<Mat> sinv(num_blocks);
    bool ok = true;
    for (std::size_t l = 0; l < num_blocks; ++l) {
      Cholesky cs(sm[l]);
      if (!cs.ok()) {
        ok = false;
        break;
      }
      const Mat linv = cs.lower_inverse();
      sinv[l] = matmul_at_b(linv, linv);  // S^{-1} = L^{-T} L^{-1}
    }
    if (!ok) {
      sol.status = SdpStatus::kNumericalFailure;
      break;
    }

    // ---- Schur complement M_ij = <A_i, sym(X A_j S^{-1})> per block.
    // Columns j fan out over the pool: each constraint kj touching the
    // block builds its W_j = X A_j S^{-1} in its thread's scratch and
    // writes only its own Schur column, so the writes are disjoint; the
    // block loop stays serial, preserving the per-entry accumulation order
    // regardless of thread count. Small blocks skip the pool entirely (see
    // kParallelSchurFlops below): the fork/join handshake costs more than
    // the assembly, which is what made the bench_parallel sdp_schur
    // workload a slowdown at low thread counts. The gate depends only on
    // the problem shape, so results stay bitwise-identical either way.
    Mat schur(m, m);
    for (std::size_t l = 0; l < num_blocks; ++l) {
      const BlockIndex& bi = index[l];
      const std::size_t nl = problem.block_dims[l];
      const std::size_t nc = bi.constraint_ids.size();
      const auto schur_cols = [&](std::size_t kj_begin, std::size_t kj_end) {
        // Per-thread scratch: W_j and its rank-1 terms.
        thread_local std::vector<double> w, u, srows;
        for (std::size_t kj = kj_begin; kj < kj_end; ++kj) {
          // W = X A_j S^{-1}: for each of A_j's entries, in order,
          // v (X[:,r] Sinv[c,:] + [r != c] X[:,c] Sinv[r,:]). Term t puts
          // its X column (read as a row: X is exactly symmetric) times v in
          // column t of u and its Sinv row in row t of srows, and one
          // rank-T update adds the terms to each element in that order.
          const std::size_t e_begin = bi.entry_begin[kj];
          const std::size_t e_end = bi.entry_begin[kj + 1];
          std::size_t terms = 0;
          for (std::size_t e = e_begin; e < e_end; ++e)
            terms += bi.rows[e] == bi.cols[e] ? 1 : 2;
          u.resize(nl * terms);
          srows.resize(terms * nl);
          std::size_t t = 0;
          const auto add_term = [&](std::size_t xr, double v,
                                    std::size_t sr) {
            const double* xrow = x[l].row_ptr(xr);
            for (std::size_t a = 0; a < nl; ++a) u[a * terms + t] = xrow[a] * v;
            std::copy(sinv[l].row_ptr(sr), sinv[l].row_ptr(sr) + nl,
                      srows.begin() + t * nl);
            ++t;
          };
          for (std::size_t e = e_begin; e < e_end; ++e) {
            const std::size_t r = bi.rows[e];
            const std::size_t c = bi.cols[e];
            add_term(r, bi.vals[e], c);
            if (r != c) add_term(c, bi.vals[e], r);
          }
          w.assign(nl * nl, 0.0);
          simd::outer_accumulate(w.data(), u.data(), nl, srows.data(), nl,
                                 terms);
          // M_ij += <A_i, sym(W_j)> down this constraint's Schur column.
          const std::size_t j = bi.constraint_ids[kj];
          for (std::size_t ki = 0; ki < nc; ++ki) {
            const std::size_t i = bi.constraint_ids[ki];
            double acc = 0.0;
            for (std::size_t e = bi.entry_begin[ki];
                 e < bi.entry_begin[ki + 1]; ++e) {
              const std::size_t r = bi.rows[e];
              const std::size_t c = bi.cols[e];
              const double v = bi.vals[e];
              if (r == c)
                acc += v * w[r * nl + r];
              else
                acc += 0.5 * v * (w[r * nl + c] + w[c * nl + r]) * 2.0;
            }
            schur(i, j) += acc;
          }
        }
      };
      // Gate: per-column work is ~nl^2 flops per entry; below the threshold
      // the serial loop beats any dispatch. Calibrated from bench_parallel's
      // sdp_schur workload (nl = 48, nc = 96, ~2^17.8 "flops"), which
      // measured 0.74x through the pool -- so that size and everything
      // smaller stays serial; only substantially larger Schur systems fan
      // out. Columns go to the pool eight at a time: dispatch overhead is
      // per chunk, and a column's output (its own Schur column) is disjoint
      // from every other, so chunking never changes results.
      if (nc * nl * nl < schur_parallel_threshold())
        schur_cols(0, nc);
      else
        parallel_for(nc, 8, schur_cols);
    }
    schur.symmetrize();
    // Tiny ridge to absorb roundoff on nearly dependent rows.
    double diag_max = 0.0;
    for (std::size_t i = 0; i < m; ++i)
      diag_max = std::max(diag_max, schur(i, i));
    for (std::size_t i = 0; i < m; ++i)
      schur(i, i) += 1e-13 * std::max(1.0, diag_max);

    // Robust factorization: a near-singular Schur complement (nearly
    // dependent constraints) gets an escalating ridge before giving up.
    const RobustCholesky rchol_m = robust_cholesky(schur, envelope);
    if (!rchol_m.ok()) {
      sol.status = SdpStatus::kNumericalFailure;
      break;
    }
    const Cholesky& chol_m = rchol_m.factor;

    // Free-variable coupling: W = M^{-1} B, T = B' W.
    Mat w_free;
    Mat t_free;
    const Cholesky* chol_t = nullptr;
    RobustCholesky rchol_t;
    if (s > 0) {
      w_free = chol_m.solve(bmat);
      // T over B's nonzeros, each element summed in ascending constraint
      // order as matmul_at_b sums it: a zero of B would add a +-0 product
      // to a sum that is never -0, which changes no bit.
      t_free = Mat(s, s);
      for (std::size_t k = 0; k < m; ++k) {
        const double* bk = bmat.row_ptr(k);
        for (std::size_t i = 0; i < s; ++i)
          if (bk[i] != 0.0)
            simd::axpy(t_free.row_ptr(i), bk[i], w_free.row_ptr(k), s);
      }
      // Ridge for safety (B should have full column rank).
      for (std::size_t j = 0; j < s; ++j) t_free(j, j) += 1e-13;
      rchol_t = robust_cholesky(t_free);
      if (!rchol_t.ok()) {
        sol.status = SdpStatus::kNumericalFailure;
        break;
      }
      chol_t = &rchol_t.factor;
    }

    // Helper: given the complementarity target matrices Z_l (so that
    // dX = Z - sym(X dS S^{-1})), solve for (dy, df, dS, dX).
    const auto solve_direction = [&](const std::vector<Mat>& z,
                                     std::vector<Mat>& dx, Vec& dy, Vec& df,
                                     std::vector<Mat>& ds) {
      // g_i = <A_i, Z - sym(X Rd S^{-1})>.
      Vec g(m, 0.0);
      std::vector<Mat> xrs(num_blocks);
      for (std::size_t l = 0; l < num_blocks; ++l)
        xrs[l] = matmul(matmul(x[l], res.rd[l]), sinv[l]);
      for (std::size_t l = 0; l < num_blocks; ++l) {
        const BlockIndex& bi = index[l];
        for (std::size_t k = 0; k < bi.constraint_ids.size(); ++k) {
          const std::size_t i = bi.constraint_ids[k];
          g[i] += inner_with_constraint(bi, k, z[l]);
          g[i] -= inner_with_constraint(bi, k, xrs[l]);
        }
      }
      Vec rhs1 = res.rp - g;
      const Vec t1 = chol_m.solve(rhs1);
      if (s > 0) {
        const Vec bt1 = matvec_t(bmat, t1);
        df = chol_t->solve(bt1 - res.rf);
        dy = t1 - matvec(w_free, df);
      } else {
        df = Vec(0);
        dy = t1;
      }
      // dS = Rd - At(dy); dX = Z - sym(X dS S^{-1}).
      ds.assign(num_blocks, Mat());
      dx.assign(num_blocks, Mat());
      for (std::size_t l = 0; l < num_blocks; ++l) {
        Mat dsl = res.rd[l];
        Vec neg_dy = dy;
        neg_dy *= -1.0;
        accumulate_at(index[l], neg_dy, dsl);
        Mat xds = matmul(matmul(x[l], dsl), sinv[l]);
        Mat dxl = z[l];
        // dxl -= sym(xds)
        for (std::size_t a = 0; a < dxl.rows(); ++a)
          for (std::size_t bb = 0; bb < dxl.cols(); ++bb)
            dxl(a, bb) -= 0.5 * (xds(a, bb) + xds(bb, a));
        dxl.symmetrize();
        ds[l] = std::move(dsl);
        dx[l] = std::move(dxl);
      }
    };

    // ---- Predictor (affine scaling: Z = -X).
    std::vector<Mat> z(num_blocks);
    for (std::size_t l = 0; l < num_blocks; ++l) {
      z[l] = x[l];
      z[l] *= -1.0;
    }
    std::vector<Mat> dx_aff, ds_aff;
    Vec dy_aff, df_aff;
    solve_direction(z, dx_aff, dy_aff, df_aff, ds_aff);

    double ap_aff = 1.0, ad_aff = 1.0;
    for (std::size_t l = 0; l < num_blocks; ++l) {
      ap_aff = std::min(ap_aff, psd_step_length(x[l], dx_aff[l]));
      ad_aff = std::min(ad_aff, psd_step_length(sm[l], ds_aff[l]));
    }
    ap_aff *= kStepFraction;
    ad_aff *= kStepFraction;

    double mu_aff = 0.0;
    for (std::size_t l = 0; l < num_blocks; ++l) {
      Mat xt = x[l];
      xt.axpy(ap_aff, dx_aff[l]);
      Mat st = sm[l];
      st.axpy(ad_aff, ds_aff[l]);
      mu_aff += frob_inner(xt, st);
    }
    mu_aff /= static_cast<double>(total_dim);
    double sigma = std::pow(std::max(0.0, mu_aff / res.mu), 3.0);
    sigma = std::clamp(sigma, 1e-6, 0.99);

    // ---- Corrector: Z = sigma mu S^{-1} - X - sym(dX_aff dS_aff S^{-1}).
    for (std::size_t l = 0; l < num_blocks; ++l) {
      Mat zl = sinv[l] * (sigma * res.mu);
      zl -= x[l];
      const Mat corr = matmul(matmul(dx_aff[l], ds_aff[l]), sinv[l]);
      for (std::size_t a = 0; a < zl.rows(); ++a)
        for (std::size_t bb = 0; bb < zl.cols(); ++bb)
          zl(a, bb) -= 0.5 * (corr(a, bb) + corr(bb, a));
      z[l] = std::move(zl);
    }
    std::vector<Mat> dx, ds;
    Vec dy, df;
    solve_direction(z, dx, dy, df, ds);

    double ap = 1.0, ad = 1.0;
    for (std::size_t l = 0; l < num_blocks; ++l) {
      ap = std::min(ap, psd_step_length(x[l], dx[l]));
      ad = std::min(ad, psd_step_length(sm[l], ds[l]));
    }
    ap *= kStepFraction;
    ad *= kStepFraction;
    if (ap < 1e-10 && ad < 1e-10) {
      // Both step lengths collapsed: the iteration can no longer move, which
      // is a stall (often near-infeasibility), not corrupted arithmetic.
      sol.status = SdpStatus::kStalled;
      if (metrics_enabled()) {
        static Counter& stalls =
            MetricsRegistry::instance().counter("sdp.stalls");
        stalls.add(1);
      }
      break;
    }

    for (std::size_t l = 0; l < num_blocks; ++l) {
      x[l].axpy(ap, dx[l]);
      x[l].symmetrize();
      sm[l].axpy(ad, ds[l]);
      sm[l].symmetrize();
    }
    if (s > 0) f.axpy(ap, df);
    y.axpy(ad, dy);

    if (iter + 1 == kMaxIterations) sol.status = SdpStatus::kMaxIterations;
  }

  sol.x = std::move(x);
  sol.free_vars = std::move(f);
  sol.y = std::move(y);
  double obj = 0.0;
  for (std::size_t l = 0; l < num_blocks; ++l) obj += cw[l] * sol.x[l].trace();
  obj += dot(cf, sol.free_vars);
  sol.primal_objective = obj;
  return sol;
}

}  // namespace

double infeasibility_bound(const SdpProblem& problem, const Vec& y) {
  const std::size_t m = problem.constraints.size();
  const std::size_t num_blocks = problem.block_dims.size();
  SCS_REQUIRE(y.size() == m, "infeasibility_bound: need one y per constraint");
  SCS_REQUIRE(problem.block_obj_weight.empty() ||
                  problem.block_obj_weight.size() == num_blocks,
              "infeasibility_bound: objective weight count mismatch");
  const auto weight = [&](std::size_t l) {
    return problem.block_obj_weight.empty() ? 0.0
                                            : problem.block_obj_weight[l];
  };
  // b'y and B'y, each with the magnitude of its summands: a sum of m
  // products is off by at most (m + 1) u times that magnitude.
  const double round = static_cast<double>(m + 2) *
                       std::numeric_limits<double>::epsilon();
  double by = 0.0, by_abs = 0.0;
  Vec bty(problem.num_free, 0.0), bty_abs(problem.num_free, 0.0);
  std::vector<Mat> z(num_blocks), z_abs(num_blocks);
  for (std::size_t l = 0; l < num_blocks; ++l) {
    z[l] = Mat::identity(problem.block_dims[l]) * weight(l);
    z_abs[l] = Mat::identity(problem.block_dims[l]) * std::fabs(weight(l));
  }
  for (std::size_t i = 0; i < m; ++i) {
    const SdpConstraint& con = problem.constraints[i];
    by += con.rhs * y[i];
    by_abs += std::fabs(con.rhs * y[i]);
    for (const auto& [idx, coeff] : con.free_terms) {
      bty[idx] += coeff * y[i];
      bty_abs[idx] += std::fabs(coeff * y[i]);
    }
    for (const SdpEntry& e : con.entries) {
      const double v = e.value * y[i];
      z[e.block](e.row, e.col) -= v;
      z_abs[e.block](e.row, e.col) += std::fabs(v);
      if (e.row != e.col) {
        z[e.block](e.col, e.row) -= v;
        z_abs[e.block](e.col, e.row) += std::fabs(v);
      }
    }
  }
  by -= round * by_abs;
  if (!(by > 0.0)) return 0.0;
  double denom = bty.norm() + round * bty_abs.norm();
  for (std::size_t l = 0; l < num_blocks; ++l)
    denom = std::max(denom,
                     weight(l) + block_slack(z[l], z_abs[l].max_abs(), m));
  return denom > 0.0 ? by / denom : std::numeric_limits<double>::infinity();
}

SdpSolution solve_sdp(const SdpProblem& problem, const JobControl* control) {
  TraceSpan span("sdp.solve");
  if (metrics_enabled()) {
    static Counter& solves = MetricsRegistry::instance().counter("sdp.solves");
    solves.add(1);
  }
  const double base_scale = auto_scale(problem);
  SdpSolution best = solve_sdp_once(problem, base_scale, control);
  if (best.status == SdpStatus::kConverged ||
      best.status == SdpStatus::kInfeasible ||
      best.status == SdpStatus::kTimeLimit ||
      best.status == SdpStatus::kCancelled)
    return best;

  // Bounded retry-and-rescale: restart from scaled initial iterates, probing
  // above then below the base scale. Infeasible-start interior-point methods
  // are sensitive to the starting point, so a stalled instance often
  // converges cleanly from a different scale.
  const auto merit_of = [](const SdpSolution& s) {
    return std::max({s.primal_infeasibility, s.dual_infeasibility,
                     s.duality_gap});
  };
  for (int retry = 1; retry <= kMaxRetries; ++retry) {
    if (stop_requested(control)) break;
    const double factor = std::pow(kRetryScaleFactor, (retry + 1) / 2);
    const double scale =
        (retry % 2 == 1) ? base_scale * factor : base_scale / factor;
    log_info("sdp: ", to_string(best.status), " after ", best.iterations,
             " iterations; retry ", retry, "/", kMaxRetries, " at scale ",
             scale);
    if (metrics_enabled()) {
      static Counter& restarts =
          MetricsRegistry::instance().counter("sdp.restarts");
      restarts.add(1);
    }
    SdpSolution next = solve_sdp_once(problem, scale, control);
    next.restarts = retry;
    if (next.status == SdpStatus::kConverged ||
        next.status == SdpStatus::kInfeasible)
      return next;
    if (merit_of(next) < merit_of(best)) best = next;
  }
  return best;
}

}  // namespace scs
