#include "sos/interval.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "util/check.hpp"

namespace scs {

Interval::Interval(double l, double h) : lo(l), hi(h) {
  SCS_REQUIRE(l <= h, "Interval: lo must be <= hi");
}

Interval Interval::operator+(const Interval& rhs) const {
  return {lo + rhs.lo, hi + rhs.hi};
}

Interval Interval::operator-(const Interval& rhs) const {
  return {lo - rhs.hi, hi - rhs.lo};
}

Interval Interval::operator*(const Interval& rhs) const {
  const double a = lo * rhs.lo;
  const double b = lo * rhs.hi;
  const double c = hi * rhs.lo;
  const double d = hi * rhs.hi;
  return {std::min({a, b, c, d}), std::max({a, b, c, d})};
}

Interval Interval::operator*(double s) const {
  return (s >= 0.0) ? Interval{lo * s, hi * s} : Interval{hi * s, lo * s};
}

Interval Interval::pow(int e) const {
  SCS_REQUIRE(e >= 0, "Interval::pow: negative exponent");
  if (e == 0) return point(1.0);
  if (e == 1) return *this;
  if (e % 2 == 1) {
    // Odd powers are monotone.
    return {pow_int(lo, e), pow_int(hi, e)};
  }
  // Even powers: the minimum is 0 when the interval straddles zero.
  const double plo = pow_int(lo, e);
  const double phi = pow_int(hi, e);
  if (contains(0.0)) return {0.0, std::max(plo, phi)};
  return {std::min(plo, phi), std::max(plo, phi)};
}

Interval interval_enclosure(const Polynomial& p, const Box& box) {
  SCS_REQUIRE(p.num_vars() == box.dim(),
              "interval_enclosure: dimension mismatch");
  Interval acc = Interval::point(0.0);
  for (const auto& [m, c] : p.terms()) {
    Interval term = Interval::point(c);
    for (std::size_t i = 0; i < box.dim(); ++i) {
      const int e = m.exponent(i);
      if (e == 0) continue;
      term = term * Interval(box.lo[i], box.hi[i]).pow(e);
    }
    acc = acc + term;
  }
  return acc;
}

BoundResult prove_lower_bound(const Polynomial& p, const Box& box,
                              double threshold) {
  constexpr std::uint64_t kMaxBoxes = 100000;  // subdivision budget
  SCS_REQUIRE(p.num_vars() == box.dim(),
              "prove_lower_bound: dimension mismatch");
  BoundResult result;
  result.certified_lower_bound = std::numeric_limits<double>::infinity();

  std::deque<Box> queue = {box};
  while (!queue.empty()) {
    if (result.boxes_processed >= kMaxBoxes) {
      result.budget_exhausted = true;
      result.counterexample_region = queue.front();
      return result;
    }
    ++result.boxes_processed;
    const Box cur = queue.front();
    queue.pop_front();

    const Interval range = interval_enclosure(p, cur);
    if (range.lo >= threshold) {
      result.certified_lower_bound =
          std::min(result.certified_lower_bound, range.lo);
      continue;  // this leaf is proven
    }
    // Quick refutation at the midpoint.
    const Vec mid = cur.center();
    if (p.evaluate(mid) < threshold) {
      result.counterexample_region = cur;
      result.certified_lower_bound = std::min(
          result.certified_lower_bound, p.evaluate(mid));
      return result;  // genuine violation
    }
    // Subdivide along the widest axis.
    std::size_t axis = 0;
    double best_width = -1.0;
    for (std::size_t i = 0; i < cur.dim(); ++i) {
      const double w = cur.hi[i] - cur.lo[i];
      if (w > best_width) {
        best_width = w;
        axis = i;
      }
    }
    if (best_width < 1e-12) {
      // Degenerate box whose enclosure still fails: treat as numerical
      // counterexample evidence.
      result.counterexample_region = cur;
      return result;
    }
    Box left = cur, right = cur;
    left.hi[axis] = mid[axis];
    right.lo[axis] = mid[axis];
    queue.push_back(left);
    queue.push_back(right);
  }

  result.proven = true;
  if (!std::isfinite(result.certified_lower_bound))
    result.certified_lower_bound = threshold;
  return result;
}

}  // namespace scs
