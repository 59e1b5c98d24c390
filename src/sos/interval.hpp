// Rigorous polynomial range bounding by interval arithmetic with
// branch-and-bound subdivision.
//
// This closes the gap the sampling validator leaves: for low dimensions it
// *proves* statements like "B >= 0 on Theta" or "L_f B > 0 on the band
// |B| <= delta" over whole boxes, up to floating-point rounding -- the same
// role the SMT solver plays for the nncontroller baseline, but specialized
// to polynomials and so exponentially cheaper in practice.
#pragma once

#include <cstdint>

#include "poly/polynomial.hpp"
#include "systems/box.hpp"

namespace scs {

/// A closed interval [lo, hi].
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  Interval() = default;
  Interval(double l, double h);

  static Interval point(double v) { return {v, v}; }

  Interval operator+(const Interval& rhs) const;
  Interval operator-(const Interval& rhs) const;
  Interval operator*(const Interval& rhs) const;
  Interval operator*(double s) const;

  /// [lo,hi]^e for a non-negative integer exponent (tight for even powers).
  Interval pow(int e) const;

  double width() const { return hi - lo; }
  bool contains(double v) const { return lo <= v && v <= hi; }
};

/// Interval enclosure of p over the box (one evaluation, no subdivision).
Interval interval_enclosure(const Polynomial& p, const Box& box);

struct BoundResult {
  /// Verified: p(x) >= threshold for all x in the box.
  bool proven = false;
  /// A witness box where the bound could not be established (meaningful
  /// when !proven and the budget was not exhausted).
  Box counterexample_region;
  /// Best certified lower bound over the whole box.
  double certified_lower_bound = 0.0;
  std::uint64_t boxes_processed = 0;
  bool budget_exhausted = false;
};

/// Branch-and-bound proof that p >= threshold everywhere on the box.
/// Subdivides along the widest axis until every leaf's interval enclosure
/// clears the threshold, a leaf's midpoint refutes the claim, or the budget
/// of 100000 boxes runs out.
BoundResult prove_lower_bound(const Polynomial& p, const Box& box,
                              double threshold);

}  // namespace scs
