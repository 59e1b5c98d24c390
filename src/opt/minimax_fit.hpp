// Discrete linear minimax (Chebyshev) fitting -- the scenario program (8):
//
//     min_c  e   s.t.  |u_i - phi(x_i)' c| <= e  for all K samples,
//
// solved at scale by Lawson's iteratively reweighted least squares followed
// by an exact active-set exchange refinement. Each exchange round solves the
// LP over the current support set (2s rows, 2v + 1 + 2s columns for s
// support samples and v basis terms) from scratch with the two-phase primal
// simplex of simplex.hpp, then adds up to `exchange_add_per_round` of the
// worst violators. The last rounds' LPs are the largest: 540 rows by 561
// columns on the C1 benchmark, where the exchange, not Lawson, takes most
// of the fit's time.
//
// The returned error is always the exact achieved max |residual| over all K
// samples, i.e. a feasible objective value of (8); when `exact` is true it
// matches the LP optimum to within `exchange_tol`.
#pragma once

#include <string>

#include "math/mat.hpp"
#include "math/vec.hpp"
#include "util/cancellation.hpp"

namespace scs {

struct MinimaxOptions {
  int lawson_iterations = 40;
  int exchange_rounds = 60;
  int exchange_add_per_round = 8;
  double exchange_tol = 1e-7;  // |e_full - e_support| acceptance threshold
  double ridge = 1e-10;        // Tikhonov jitter for the weighted LS solves
  /// Job-level preemption (borrowed, may be null): checked between Lawson
  /// iterations / exchange rounds and forwarded into the support LPs. A
  /// preempted fit returns ok = false. Runtime plumbing only -- never hashed.
  const JobControl* control = nullptr;
};

struct MinimaxFitResult {
  Vec coefficients;       // c*
  double error = 0.0;     // max_i |u_i - phi_i' c*| over all samples
  double support_error = 0.0;  // LP optimum on the final support set
  bool exact = false;     // exchange converged to the global LP optimum
  /// False when no usable Chebyshev iterate could be produced at all (e.g.
  /// the weighted least-squares core failed even with regularization, or the
  /// targets contain non-finite values). Callers should fall back to a plain
  /// least-squares fit; minimax_fit never throws for numeric reasons.
  bool ok = true;
  std::string note;       // diagnostic for !ok / degraded runs
  int lawson_iterations = 0;
  int exchange_rounds = 0;
  std::vector<std::size_t> support;  // active sample indices at optimum
};

/// Fit: design is K x v (rows are basis evaluations phi(x_i)), targets u_i.
/// Requires K >= 1 and v >= 1; K >= v is needed for a meaningful fit.
MinimaxFitResult minimax_fit(const Mat& design, const Vec& targets,
                             const MinimaxOptions& options = {});

}  // namespace scs
