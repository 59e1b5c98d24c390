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
  kTimeLimit,   // the job's deadline passed mid-solve
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

/// The minimax exchange sets only `control`. The cap stays settable because
/// production takes that path (20,000 pivots, then the Bland rerun) and
/// Simplex.IterationLimitCountsEveryPivot can reach it only with a small cap.
struct LpOptions {
  /// Pivot cap per phase and per run. A phase whose Dantzig run makes this
  /// many pivots without reaching the optimum (heavy degeneracy / cycling)
  /// is rerun once from its starting basis under pure Bland's rule, which
  /// terminates by construction; a rerun that also reaches the cap stops the
  /// solve with kIterationLimit.
  int max_iterations = 20000;
  /// Job-level preemption (borrowed, may be null): polled every 64 pivots,
  /// so a cancellation or job deadline stops the solve mid-phase. It is the
  /// only way a solve stops on time. Runtime plumbing only -- never hashed.
  const JobControl* control = nullptr;
};

/// Solve a standard-form LP. Rows of A should be linearly independent;
/// redundant-but-consistent rows are tolerated (artificials pinned at zero).
LpSolution solve_lp(const LpProblem& problem, const LpOptions& options = {});

}  // namespace scs
