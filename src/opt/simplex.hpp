// Two-phase revised simplex for standard-form linear programs:
//
//     min c'x   s.t.  A x = b,  x >= 0.
//
// Serves the support LPs of the minimax exchange refinement (see
// minimax_fit.hpp): 2s rows by 2v + 1 + 2s columns for a support of s
// samples, which reaches 540 x 561 (1,101 columns with the artificials) on
// the C1 benchmark. The scenario programs themselves never reach this
// solver directly.
//
// The basis inverse is dense and updated by elementary pivots. Everything
// else follows the nonzeros of A: [A | I] is held column-compressed once
// per solve, reduced costs sum y_i * a_ij over each column's nonzeros in
// increasing row order, a unit entering column (slack or artificial) reads
// its direction straight off B^{-1}, and basis membership is a flag per
// column. Contract: on finite data this chooses the same entering and
// leaving variable at every pivot and returns bit-identical x, dual, basis
// and iterations as dense Dantzig pricing over the full matrix -- skipping
// a structural zero only drops a +-0 term.
#pragma once

#include <vector>

#include "math/mat.hpp"
#include "math/vec.hpp"
#include "util/cancellation.hpp"

namespace scs {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kTimeLimit,   // wall_clock_seconds budget or job deadline exhausted
  kCancelled,   // LpOptions::control requested cancellation
};

const char* to_string(LpStatus status);

struct LpProblem {
  Mat a;  // m x n
  Vec b;  // length m
  Vec c;  // length n
};

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  Vec x;
  double objective = 0.0;
  Vec dual;  // y with A' y <= c at optimality
  std::vector<std::size_t> basis;
  int iterations = 0;
};

struct LpOptions {
  /// Pivot cap per phase (per run, for the Bland rerun); a phase that has
  /// made this many pivots and is still not optimal stops with
  /// kIterationLimit.
  int max_iterations = 20000;
  double tol = 1e-9;
  /// Wall-clock budget in seconds for the whole solve (both phases and the
  /// Bland fallback); 0 = unlimited.
  double wall_clock_seconds = 0.0;
  /// When Dantzig pricing hits the iteration limit (heavy degeneracy /
  /// cycling), restart the failed phase once under pure Bland's rule, which
  /// terminates by construction.
  bool bland_restart = true;
  /// Job-level preemption (borrowed, may be null): polled on the same coarse
  /// cadence as the wall-clock budget so a cancellation or job deadline
  /// stops the solve mid-phase. Runtime plumbing only -- never hashed.
  const JobControl* control = nullptr;
};

/// Solve a standard-form LP. Rows of A should be linearly independent;
/// redundant-but-consistent rows are tolerated (artificials pinned at zero).
LpSolution solve_lp(const LpProblem& problem, const LpOptions& options = {});

}  // namespace scs
