#include "pac/pac_fit.hpp"

#include <algorithm>
#include <cmath>

#include "math/robust_solve.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/minimax_fit.hpp"
#include "pac/scenario.hpp"
#include "poly/basis.hpp"
#include "util/check.hpp"
#include "util/fault_injector.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"
#include "util/hash.hpp"

namespace scs {

namespace {

/// Samples per parallel chunk for scenario generation. The chunking (and
/// the substream forked for each chunk) depends only on K, so the drawn
/// scenarios are bitwise-identical at any thread count.
constexpr std::size_t kScenarioChunk = 256;

/// Screen non-finite targets (controller evaluation blow-ups, injected
/// NaNs at the law -> PAC boundary) out of the scenario program. Returns the
/// number of rows dropped; design/targets are compacted in place.
std::size_t drop_nonfinite_samples(Mat& design, Vec& targets) {
  const std::size_t k = design.rows();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < k; ++i) {
    bool finite = std::isfinite(targets[i]);
    const double* row = design.row_ptr(i);
    for (std::size_t j = 0; finite && j < design.cols(); ++j)
      finite = std::isfinite(row[j]);
    if (!finite) continue;
    if (kept != i) {
      design.set_row(kept, design.row(i));
      targets[kept] = targets[i];
    }
    ++kept;
  }
  const std::size_t dropped = k - kept;
  if (dropped > 0) {
    Mat compact(kept, design.cols());
    for (std::size_t i = 0; i < kept; ++i) compact.set_row(i, design.row(i));
    design = std::move(compact);
    Vec t(kept);
    for (std::size_t i = 0; i < kept; ++i) t[i] = targets[i];
    targets = std::move(t);
  }
  return dropped;
}

/// Plain least-squares fallback for a failed scenario program: the
/// degradation ladder's last rung before giving up on this (d, eps) attempt.
MinimaxFitResult least_squares_fallback(const Mat& design,
                                        const Vec& targets) {
  MinimaxFitResult out;
  out.ok = false;
  const std::size_t v = design.cols();
  Mat g(v, v);
  Vec rhs(v, 0.0);
  for (std::size_t i = 0; i < design.rows(); ++i) {
    const double* row = design.row_ptr(i);
    for (std::size_t a = 0; a < v; ++a) {
      rhs[a] += row[a] * targets[i];
      for (std::size_t b = a; b < v; ++b) g(a, b) += row[a] * row[b];
    }
  }
  for (std::size_t a = 0; a < v; ++a) {
    g(a, a) += 1e-10;
    for (std::size_t b = a + 1; b < v; ++b) g(b, a) = g(a, b);
  }
  const LinearSolveReport report = robust_solve_spd(g, rhs);
  if (!report.ok()) {
    out.coefficients = Vec(v, 0.0);
    out.error = std::numeric_limits<double>::infinity();
    out.note = "least-squares fallback failed too";
    return out;
  }
  out.ok = true;
  out.coefficients = report.x;
  Vec r = targets;
  r -= matvec(design, out.coefficients);
  out.error = r.max_abs();
  out.note = "least-squares fallback (no PAC guarantee)";
  return out;
}

}  // namespace

PacResult pac_approximate(const ScalarFn& fn, const SemialgebraicSet& domain,
                          const PacSettings& settings, Rng& rng,
                          const PacFitOptions& options) {
  SCS_REQUIRE(settings.max_degree >= 1, "pac_approximate: max_degree >= 1");
  SCS_REQUIRE(!settings.eps_list.empty(), "pac_approximate: empty eps list");
  PacResult result;
  Stopwatch total;

  const std::size_t n = domain.dim();
  double best_error = std::numeric_limits<double>::infinity();

  // Fit in unit-box coordinates y = x / s (s from the domain box): high-
  // degree design matrices on wide boxes are otherwise too ill-conditioned
  // for the weighted least-squares steps. The returned polynomial is mapped
  // back to x-coordinates, so callers never see the scaling.
  Vec s(n, 1.0), s_inv(n, 1.0);
  {
    const Box& box = domain.sampling_box();
    for (std::size_t i = 0; i < n; ++i) {
      s[i] = std::max({std::fabs(box.lo[i]), std::fabs(box.hi[i]), 1e-9});
      s_inv[i] = 1.0 / s[i];
    }
  }

  for (int d = 1; d <= settings.max_degree; ++d) {
    const auto basis = monomials_up_to(n, d);
    const std::size_t kappa = pac_template_kappa(n, d);
    std::vector<double> error_list;
    PacModel degree_best;
    degree_best.error = std::numeric_limits<double>::infinity();

    for (double eps : settings.eps_list) {
      // Job-level preemption: stop the (d, eps) ladder before drawing the
      // next (potentially huge) scenario batch. The caller inspects its
      // JobControl for the stop reason; this result is simply !success.
      if (stop_requested(options.control)) {
        result.total_seconds = total.seconds();
        return result;
      }
      TraceSpan attempt_span("pac.attempt:d" + std::to_string(d));
      Stopwatch sw;
      PacTraceRow row;
      row.degree = d;
      row.eta = settings.eta;
      row.eps = eps;
      row.samples = scenario_sample_count(eps, settings.eta, kappa);
      row.samples_used = row.samples;
      row.eps_requested = eps;
      const char* cap_reason = nullptr;
      if (options.max_samples > 0 && row.samples_used > options.max_samples) {
        row.samples_used = options.max_samples;
        cap_reason = "max_samples";
      }
      // Memory guard on the design matrix (K x v doubles).
      const std::uint64_t bytes_per_sample = 8 * basis.size();
      const std::uint64_t max_by_memory =
          std::max<std::uint64_t>(1000,
                                  options.max_design_bytes / bytes_per_sample);
      if (row.samples_used > max_by_memory) {
        row.samples_used = max_by_memory;
        cap_reason = "max_design_bytes memory guard";
      }
      if (row.samples_used < row.samples) {
        // Recompute the honest error rate achievable with the capped count;
        // silently keeping the requested eps would invalidate the Theorem-3
        // PAC bound.
        row.eps = scenario_eps_for_samples(row.samples_used, settings.eta,
                                           kappa);
        log_info("pac: d=", d, " truncated K ", row.samples, " -> ",
                 row.samples_used, " (", cap_reason, "); effective eps ",
                 row.eps, " vs requested ", row.eps_requested);
      }

      // Draw K i.i.d. samples from Psi (Assumption 1: uniform measure) and
      // evaluate the target plus the basis row at each. Every chunk samples
      // from its own forked substream and fills its own design rows, so
      // generation and design-matrix evaluation run on all cores while the
      // drawn scenarios stay bitwise-identical at any thread count.
      const std::size_t k_used = static_cast<std::size_t>(row.samples_used);
      TraceSpan draw_span("pac.draw");
      if (metrics_enabled()) {
        static Counter& drawn =
            MetricsRegistry::instance().counter("pac.samples_drawn");
        drawn.add(k_used);
      }
      std::vector<Rng> streams = rng.fork_streams(
          (k_used + kScenarioChunk - 1) / kScenarioChunk);
      Mat design(k_used, basis.size());
      Vec targets(k_used);
      parallel_for(k_used, kScenarioChunk,
                   [&](std::size_t begin, std::size_t end) {
                     Rng& chunk_rng = streams[begin / kScenarioChunk];
                     // Draw the whole chunk first (sampling and target
                     // evaluation keep their per-index order), then batch-
                     // evaluate the basis rows: evaluate_basis_rows scans
                     // the basis structure once per chunk and fills the
                     // design rows in place, bitwise-identically to the
                     // per-point evaluate_basis it replaces.
                     std::vector<Vec> chunk_pts;
                     chunk_pts.reserve(end - begin);
                     for (std::size_t i = begin; i < end; ++i) {
                       Vec x = domain.sample(chunk_rng);
                       targets[i] = fn(x);
                       if (fault_injection_enabled())
                         targets[i] = FaultInjector::instance().corrupt(
                             FaultSite::kNanBoundary, targets[i]);
                       // Move the design point into unit-box coordinates.
                       for (std::size_t j = 0; j < n; ++j) x[j] *= s_inv[j];
                       chunk_pts.push_back(std::move(x));
                     }
                     evaluate_basis_rows(basis, chunk_pts, design, begin);
                   });
      draw_span.close();
      // Screen non-finite rows at the boundary: a handful of bad samples
      // (diverging controller rollouts, injected NaNs) must not poison the
      // whole scenario program. Dropping rows weakens the Theorem-3 count,
      // so the effective eps is recomputed from what actually survived.
      row.dropped_samples = drop_nonfinite_samples(design, targets);
      if (row.dropped_samples > 0 && metrics_enabled()) {
        static Counter& dropped =
            MetricsRegistry::instance().counter("pac.samples_dropped");
        dropped.add(row.dropped_samples);
      }
      if (row.dropped_samples > 0) {
        const std::uint64_t survived =
            row.samples_used - row.dropped_samples;
        log_info("pac: d=", d, " dropped ", row.dropped_samples,
                 " non-finite sample(s) of ", row.samples_used);
        row.samples_used = survived;
        if (survived < basis.size() + 1) {
          // Not enough scenarios left for a meaningful fit at this degree.
          row.error = std::numeric_limits<double>::infinity();
          row.eps = 1.0;
          row.degraded = true;
          row.seconds = sw.seconds();
          result.trace.push_back(row);
          error_list.push_back(row.error);
          continue;
        }
        row.eps = scenario_eps_for_samples(survived, settings.eta, kappa);
      }
      MinimaxOptions minimax_options;
      minimax_options.control = options.control;
      MinimaxFitResult fit = minimax_fit(design, targets, minimax_options);
      if (!fit.ok && stop_requested(options.control)) {
        // Preempted mid-fit: do not degrade to least squares (that would
        // burn more time); abandon the ladder and report no success.
        result.total_seconds = total.seconds();
        return result;
      }
      if (!fit.ok) {
        // Degradation ladder: the scenario program (8) could not be solved;
        // fall back to a plain least-squares fit so the pipeline can still
        // hand a polynomial to the verification stage. The PAC guarantee is
        // explicitly downgraded (eps = 1, pac_valid = false) -- Theorem 3
        // does not hold for this model.
        log_info("pac: d=", d, " minimax fit failed (", fit.note,
                 "); degrading to least-squares, PAC guarantee withdrawn");
        fit = least_squares_fallback(design, targets);
        row.degraded = true;
        row.eps = 1.0;
        if (metrics_enabled()) {
          static Counter& degraded =
              MetricsRegistry::instance().counter("pac.degraded_fits");
          degraded.add(1);
        }
      }
      row.error = fit.error;
      error_list.push_back(fit.error);
      row.delta_e = (error_list.size() >= 2)
                        ? std::fabs(error_list[error_list.size() - 1] -
                                    error_list[error_list.size() - 2])
                        : std::numeric_limits<double>::quiet_NaN();
      // check(error_list): |delta e| small => e has converged for this d.
      row.converged = error_list.size() >= 2 &&
                      row.delta_e <= settings.delta_e_tol;
      // A degraded (least-squares) row can never be *accepted*: acceptance
      // is the PAC claim of Theorem 3, which the fallback does not carry.
      row.accepted =
          !row.degraded && row.converged && fit.error <= settings.tau;
      row.seconds = sw.seconds();
      result.trace.push_back(row);

      log_debug("pac: d=", d, " eps=", row.eps, " K=", row.samples_used,
                " e=", fit.error);

      // The representative model at this degree is the *latest* attempt:
      // later attempts use more samples, so their error estimates dominate
      // earlier small-K fits (whose minimax error is optimistically low).
      degree_best.poly =
          Polynomial::from_coefficients(basis, fit.coefficients)
              .scale_vars(s_inv);  // back to x-coordinates
      degree_best.error = fit.error;
      degree_best.eps = row.eps;
      degree_best.eta = settings.eta;
      degree_best.samples = row.samples_used;
      degree_best.degree = d;
      degree_best.pac_valid = !row.degraded;

      if (row.accepted) {
        result.success = true;
        result.model = degree_best;
        result.per_degree.push_back(degree_best);
        result.total_seconds = total.seconds();
        return result;
      }
      if (row.converged) {
        // The error has converged in K but exceeds tau: no amount of extra
        // samples helps at this degree -- raise the degree (this matches the
        // per-degree rows of Table 1).
        break;
      }
    }
    if (std::isfinite(degree_best.error))
      result.per_degree.push_back(degree_best);
  }
  // No acceptance: report the lowest-error converged model across degrees.
  for (const auto& m : result.per_degree) {
    if (m.error < best_error) {
      best_error = m.error;
      result.model = m;
    }
  }
  result.total_seconds = total.seconds();
  return result;
}

PacVectorResult pac_approximate_vector(
    const std::function<Vec(const Vec&)>& fn, std::size_t output_dim,
    const SemialgebraicSet& domain, const PacSettings& settings, Rng& rng,
    const PacFitOptions& options) {
  SCS_REQUIRE(output_dim >= 1, "pac_approximate_vector: bad output dim");
  PacVectorResult out;
  out.success = true;
  for (std::size_t k = 0; k < output_dim; ++k) {
    if (stop_requested(options.control)) {
      out.success = false;
      break;
    }
    const ScalarFn channel = [&fn, k](const Vec& x) { return fn(x)[k]; };
    PacResult r = pac_approximate(channel, domain, settings, rng, options);
    out.success = out.success && r.success;
    out.models.push_back(r.model);
    out.per_channel.push_back(std::move(r));
  }
  return out;
}

double empirical_violation_rate(const PacModel& model, const ScalarFn& fn,
                                const SemialgebraicSet& domain,
                                std::size_t samples, Rng& rng) {
  SCS_REQUIRE(samples > 0, "empirical_violation_rate: need samples > 0");
  std::vector<Rng> streams = rng.fork_streams(
      (samples + kScenarioChunk - 1) / kScenarioChunk);
  const std::size_t violations = parallel_reduce(
      samples, kScenarioChunk, std::size_t{0},
      [&](std::size_t begin, std::size_t end) {
        Rng& chunk_rng = streams[begin / kScenarioChunk];
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


void hash_append(Fnv1a& h, const PacFitOptions& o) {
  hash_append(h, o.max_samples);
  hash_append(h, o.max_design_bytes);
}

}  // namespace scs
