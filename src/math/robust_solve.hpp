// Robust SPD solves: diagonal-regularization retry and one round of
// iterative refinement on top of the raw Cholesky factorization.
//
// The raw factorizations stay lean (a bool `ok` flag); every call site that
// previously treated "not ok" as fatal goes through this layer instead and
// receives a structured SolveStatus: recovered solves are usable (with the
// applied regularization on record), unrecoverable ones are reported without
// throwing.
#pragma once

#include "math/cholesky.hpp"
#include "math/mat.hpp"
#include "math/solve_status.hpp"
#include "math/vec.hpp"

namespace scs {

/// Outcome of a robust solve. `x` is finite whenever status != kFailed.
struct LinearSolveReport {
  SolveStatus status = SolveStatus::kFailed;
  Vec x;
  /// Final diagonal shift added to A (0 when none was needed).
  double regularization = 0.0;
  /// Factorization attempts performed (1 = clean first try).
  int factor_attempts = 0;
  /// ||b - A x||_inf against the *original* A, after refinement.
  double residual_norm = 0.0;
  /// Whether the refinement correction was applied.
  bool refined = false;

  bool ok() const { return status != SolveStatus::kFailed; }
};

/// A Cholesky factor obtained with the same retry ladder, for callers that
/// need the factor itself (repeated solves, e.g. the SDP Schur complement).
struct RobustCholesky {
  Cholesky factor{Mat(), 0.0};
  SolveStatus status = SolveStatus::kFailed;
  double regularization = 0.0;
  int factor_attempts = 0;

  bool ok() const { return status != SolveStatus::kFailed; }
};

/// Factor the SPD matrix `a`, escalating a diagonal shift until the
/// factorization succeeds or the retry budget is exhausted.
RobustCholesky robust_cholesky(const Mat& a);

/// Solve the SPD system A x = b with retry + one round of refinement.
LinearSolveReport robust_solve_spd(const Mat& a, const Vec& b);

}  // namespace scs
