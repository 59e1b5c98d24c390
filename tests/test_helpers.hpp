// Helpers the tests share and the library does not need.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "math/mat.hpp"
#include "math/vec.hpp"
#include "pac/pac_fit.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace scs {

/// Maximum absolute difference between two equally sized vectors.
inline double max_abs_diff(const Vec& a, const Vec& b) {
  SCS_REQUIRE(a.size() == b.size(), "max_abs_diff: size mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

/// Maximum absolute difference between two equally shaped matrices.
inline double max_abs_diff(const Mat& a, const Mat& b) {
  SCS_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
              "max_abs_diff: shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      m = std::max(m, std::fabs(a(i, j) - b(i, j)));
  return m;
}

/// Empirical violation rate of a PAC model on held-out samples: the
/// fraction of fresh draws with |p(x) - u(x)| > model.error. By Theorem 3
/// this should not significantly exceed model.eps. The draws come from one
/// forked stream per 256-sample chunk, so the rate is the same at any pool
/// width.
inline double empirical_violation_rate(const PacModel& model,
                                       const ScalarFn& fn,
                                       const SemialgebraicSet& domain,
                                       std::size_t samples, Rng& rng) {
  constexpr std::size_t kChunk = 256;
  SCS_REQUIRE(samples > 0, "empirical_violation_rate: need samples > 0");
  std::vector<Rng> streams = rng.fork_streams((samples + kChunk - 1) / kChunk);
  const std::size_t violations = parallel_reduce(
      samples, kChunk, std::size_t{0},
      [&](std::size_t begin, std::size_t end) {
        Rng& chunk_rng = streams[begin / kChunk];
        std::size_t count = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const Vec x = domain.sample(chunk_rng);
          if (std::fabs(model.poly.evaluate(x) - fn(x)) > model.error)
            ++count;
        }
        return count;
      },
      [](std::size_t a, std::size_t b) { return a + b; });
  return static_cast<double>(violations) / static_cast<double>(samples);
}

}  // namespace scs
