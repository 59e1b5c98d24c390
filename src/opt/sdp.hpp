// Block-diagonal semidefinite programming with free variables, solved by an
// infeasible-start primal-dual interior-point method (HKM search direction
// with Mehrotra predictor-corrector).
//
// Primal form:
//
//   min  sum_l w_l tr(X_l) + c_f' f
//   s.t. sum_l <A_il, X_l> + (B f)_i = b_i,   i = 1..m
//        X_l >= 0 (PSD),  f free,
//
// which is exactly the shape produced by the SOS compiler for the barrier
// program (12): one PSD block per Gram matrix, free variables for the
// barrier coefficients b, and one equality per matched monomial.
//
// The paper offloads this step to PENBMI / LMI solvers; this in-repo solver
// is the substitution documented in DESIGN.md.
#pragma once

#include <vector>

#include "math/mat.hpp"
#include "math/vec.hpp"
#include "util/cancellation.hpp"

namespace scs {

class Fnv1a;

/// One entry of a symmetric constraint matrix: A(row,col) = A(col,row) =
/// value (specify each unordered pair once; row <= col recommended).
struct SdpEntry {
  std::size_t block = 0;
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

struct SdpConstraint {
  std::vector<SdpEntry> entries;
  std::vector<std::pair<std::size_t, double>> free_terms;  // (index, coeff)
  double rhs = 0.0;
};

struct SdpProblem {
  std::vector<std::size_t> block_dims;
  std::size_t num_free = 0;
  std::vector<SdpConstraint> constraints;
  /// Per-block objective weight w_l (C_l = w_l * I). A small uniform weight
  /// turns a feasibility problem into a well-posed trace minimization.
  std::vector<double> block_obj_weight;
  Vec free_obj;  // optional; zero if empty
};

enum class SdpStatus {
  kConverged,          // small residuals and duality gap
  kMaxIterations,      // ran out of iterations (inspect residuals)
  kNumericalFailure,   // lost positive definiteness / factorization failed
  kInfeasible,         // proven infeasible: an inconsistent empty row, or a
                       // dual iterate whose checked bound exceeds
                       // kInfeasibilitySize (see infeasibility_bound)
  kStalled,            // no merit progress over a full stall window, or the
                       // step lengths collapsed, with no certificate either
                       // way (structured, not garbage)
  kTimeLimit,          // wall_clock_budget / job deadline exhausted mid-solve
  kCancelled,          // SdpOptions::control requested cancellation
};

const char* to_string(SdpStatus status);

struct SdpSolution {
  SdpStatus status = SdpStatus::kNumericalFailure;
  std::vector<Mat> x;  // primal PSD blocks
  Vec free_vars;
  Vec y;               // dual multipliers per constraint
  double primal_objective = 0.0;
  double primal_infeasibility = 0.0;  // ||b - A(X) - Bf|| / (1 + ||b||)
  double dual_infeasibility = 0.0;
  double duality_gap = 0.0;           // normalized <X, S>
  int iterations = 0;
  /// Rescale-and-retry restarts consumed before this solution was produced.
  int restarts = 0;
  /// kInfeasible from a dual certificate: infeasibility_bound(problem, y)
  /// at the stopping iterate, which exceeds kInfeasibilitySize. 0 otherwise
  /// (the structural empty-row case included). x, free_vars and y are the
  /// run's last iterate either way.
  double infeasibility_bound = 0.0;
};

/// Size K at which a run stops as kInfeasible: its dual iterate proves that
/// no solution has sum_l tr(X_l) + ||f||_2 below K. Measured over one
/// 32-system perfbench campaign batch (seed 2024) with the stop disabled:
/// the 36 interior-point runs of the 19 accepted SOS solves reached a bound
/// of at most 3.98e4 (their iterates had sizes 4.4-89), while 3,392 of the
/// 3,528 runs of rejected solves passed 1e6, at median iteration 10 of the
/// 21 they ran before stalling.
inline constexpr double kInfeasibilitySize = 1e6;

/// Checked lower bound on the size of every solution, from a dual vector y.
/// With Z_l = w_l I - sum_i y_i A_il and any delta_l >= max(0, -lambda_min(
/// Z_l)), every X >= 0 and f with A(X) + B f = b satisfy
///
///   sum_l tr(X_l) + ||f||_2 >= b'y / max(max_l (w_l + delta_l), ||B'y||_2),
///
/// since b'y = sum_l <w_l I - Z_l, X_l> + (B'y)'f. The function returns the
/// right-hand side, or 0 when b'y <= 0. It rebuilds Z_l from
/// `problem.constraints` and takes delta_l from a Cholesky factorization of
/// Z_l; when that fails, from eigen_sym, confirmed by factoring the shifted
/// Z_l + delta_l I. The sums that form b'y, B'y and Z_l, and the
/// factorizations, each carry a roundoff allowance that errs toward a
/// smaller bound. A bound above K says no solution of size below K exists:
/// a bounded statement, not a proof that no solution exists at all. Scaled,
/// y_hat = y / b'y meets b'y_hat = 1, sum_i y_hat_i A_i <= 0 and B'y_hat = 0
/// each to within 1/bound, which is the normalized Farkas ray.
double infeasibility_bound(const SdpProblem& problem, const Vec& y);

struct SdpOptions {
  int max_iterations = 100;
  double tol_feasibility = 1e-7;
  double tol_gap = 1e-7;
  double step_fraction = 0.98;
  double initial_scale = 0.0;  // 0 = auto from problem data
  bool verbose = false;

  // ---- Robustness controls.
  /// Stall detector: no relative merit improvement of at least
  /// `stall_improvement` over `stall_window` consecutive iterations reports
  /// kStalled instead of grinding to kMaxIterations.
  int stall_window = 15;
  double stall_improvement = 0.05;
  /// Bounded retry-and-rescale: after kStalled / kNumericalFailure the solve
  /// restarts with the initial scale multiplied by `retry_scale_factor`
  /// (alternating above / below the base scale), up to `max_retries` times.
  int max_retries = 2;
  double retry_scale_factor = 8.0;
  /// Wall-clock budget in seconds for the whole solve including retries;
  /// 0 = unlimited. Exceeding it reports kTimeLimit.
  double wall_clock_budget = 0.0;
  /// Job-level preemption (borrowed, may be null): checked every iteration,
  /// so a cancellation or job deadline stops the solve mid-interior-point
  /// instead of waiting for the constructed budget above. Runtime plumbing
  /// only -- deliberately excluded from hash_append (two runs differing
  /// only in their control share cache keys and, absent a stop, results).
  const JobControl* control = nullptr;
};

/// Solve, with the bounded retry-and-rescale of SdpOptions after a stall or
/// numerical failure. A run whose dual iterate certifies infeasibility
/// (kInfeasible) stops there and is not retried.
SdpSolution solve_sdp(const SdpProblem& problem, const SdpOptions& options = {});

/// Work threshold (touching-constraint count x block dim^2) at or above
/// which the Schur-complement assembly fans its columns out over the thread
/// pool; smaller blocks assemble serially, where the fork/join handshake
/// would cost more than the work. The gate depends only on the problem
/// shape, and column outputs are disjoint, so results are bitwise-identical
/// either way.
std::size_t schur_parallel_threshold();

/// Bench/test hook (thread-local): override the Schur parallel threshold --
/// 0 forces the pooled path for every size, SIZE_MAX forces serial. Pass
/// `reset_schur_parallel_threshold()` to restore the built-in default.
void set_schur_parallel_threshold(std::size_t flops);
void reset_schur_parallel_threshold();

void hash_append(Fnv1a& h, const SdpOptions& o);

}  // namespace scs
