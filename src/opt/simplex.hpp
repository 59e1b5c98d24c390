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
// Everything follows the nonzeros of A and of B^{-1}: [A | I] is held
// column-compressed once per solve, reduced costs sum y_i * a_ij over each
// column's nonzeros in increasing row order, a single-nonzero entering
// column (slack or artificial) reads its direction straight off B^{-1}, and
// basis membership is a flag per column. The basis inverse is updated by
// elementary pivots and kept as a scaled permutation plus its few dense
// columns: a column of B^{-1} with one nonzero (column r while a e_r is
// basic, a = +-1 for a slack or an artificial) is kept as that row and
// value, the rest in an m x (dense columns) block, and the duals, the
// direction, x_B and the update visit only the dense columns and each
// row's one unit entry. The support LP has at most 2v + 1 dense columns,
// so a pivot costs O(m (2v + 1)) rather than O(m^2). A column is counted
// as unit only after a check that it has one nonzero: for a = +-1 that
// always holds in floating point, for other a it need not.
//
// Contract: on finite data this chooses the same entering and leaving
// variable at every pivot and returns bit-identical x, dual, basis and
// iterations as dense Dantzig pricing over the full matrix with a dense
// inverse. Skipping a structural zero of A or a zero of a unit column only
// drops a +-0 term, and the dot products keep simd::dot's four lanes (lane
// j sums the columns j mod 4 in ascending order, combined as
// (l0 + l1) + (l2 + l3)), so every value matches on either kernel and in
// the SCS_SIMD=OFF build. Signs of zeros inside B^{-1} may differ; no
// comparison and no output reads them.
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
