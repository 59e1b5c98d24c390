#include "barrier/independent_check.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <sstream>

#include "barrier/mc_safety.hpp"
#include "barrier/synthesis.hpp"
#include "poly/lie.hpp"
#include "sos/interval.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace scs {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Tolerances of the two sampled callers in this file (the gate's lives in
/// barrier/synthesis.cpp) and the audit's private seed.
constexpr double kValidationTolerance = 2e-3;
constexpr double kAuditTolerance = 5e-3;
constexpr std::uint64_t kAuditSeed = 0x5afec4ec;

/// Draws per parallel chunk; each chunk owns one forked substream.
constexpr std::size_t kDrawChunk = 256;

/// Cells per axis so that per_dim^n <= budget (0 when even 2 per axis
/// overflows the budget -- pure-MC fallback for high dimensions).
std::size_t grid_per_dim(std::size_t dim, std::size_t budget) {
  std::size_t per_dim = 0;
  for (std::size_t cand = 2;; ++cand) {
    double cells = 1.0;
    for (std::size_t i = 0; i < dim; ++i) cells *= static_cast<double>(cand);
    if (cells > static_cast<double>(budget)) break;
    per_dim = cand;
    if (per_dim >= 64) break;  // 1-D/2-D: 64 cells per axis is plenty
  }
  return per_dim;
}

/// Certified extremum of `p` over set `S` intersected with its sampling
/// box, from per-cell interval enclosures: a cell counts when every
/// defining inequality's enclosure allows g_i >= 0 somewhere in it
/// (conservative intersection test), and the bound aggregates the worst
/// enclosure end over all such cells. Returns NaN when the dimension is too
/// high for the cell budget.
double interval_extremum(const Polynomial& p, const SemialgebraicSet& set,
                         std::size_t budget, bool want_min) {
  const std::size_t dim = set.dim();
  const std::size_t per_dim = grid_per_dim(dim, budget);
  if (per_dim < 2) return std::numeric_limits<double>::quiet_NaN();
  const Box& box = set.sampling_box();
  std::vector<double> step(dim);
  for (std::size_t i = 0; i < dim; ++i)
    step[i] = (box.hi[i] - box.lo[i]) / static_cast<double>(per_dim);

  std::vector<std::size_t> idx(dim, 0);
  double bound = want_min ? kInf : -kInf;
  for (;;) {
    Vec lo(dim, 0.0), hi(dim, 0.0);
    for (std::size_t i = 0; i < dim; ++i) {
      lo[i] = box.lo[i] + step[i] * static_cast<double>(idx[i]);
      hi[i] = (idx[i] + 1 == per_dim) ? box.hi[i] : lo[i] + step[i];
    }
    const Box cell(lo, hi);
    bool may_intersect = true;
    for (const Polynomial& g : set.inequalities()) {
      if (interval_enclosure(g, cell).hi < 0.0) {
        may_intersect = false;
        break;
      }
    }
    if (may_intersect) {
      const Interval enc = interval_enclosure(p, cell);
      bound = want_min ? std::min(bound, enc.lo) : std::max(bound, enc.hi);
    }
    // Odometer over the cell indices.
    std::size_t d = 0;
    while (d < dim && ++idx[d] == per_dim) idx[d++] = 0;
    if (d == dim) break;
  }
  return bound;
}

/// Extremum of `p` over `points` with its witness, plus max |p|.
struct Sweep {
  double worst = 0.0;
  Vec witness;
  double max_abs = 0.0;
};

Sweep sweep(const Polynomial& p, const std::vector<Vec>& points,
            bool want_min) {
  Sweep s;
  s.worst = want_min ? kInf : -kInf;
  for (const Vec& x : points) {
    const double v = p.evaluate(x);
    s.max_abs = std::max(s.max_abs, std::fabs(v));
    if (want_min ? (v < s.worst) : (v > s.worst)) {
      s.worst = v;
      s.witness = x;
    }
  }
  return s;
}

ConditionCheck condition(const char* name, const Polynomial& p,
                         const std::vector<Vec>& points,
                         const SemialgebraicSet& set, bool want_min,
                         double threshold, double scale,
                         std::size_t interval_budget) {
  const Sweep s = sweep(p, points, want_min);
  ConditionCheck c;
  c.name = name;
  c.worst = s.worst;
  c.witness = s.witness;
  c.threshold = threshold;
  c.scale = scale;
  c.points = points.size();
  c.interval_bound = interval_extremum(p, set, interval_budget, want_min);
  const auto clears = [&](double v) {
    return want_min ? v >= threshold : v < threshold;
  };
  c.certified = std::isfinite(c.interval_bound) && clears(c.interval_bound);
  c.passed = c.points > 0 && (clears(c.worst) || c.certified);
  return c;
}

/// "init ok worst=... thr=... (N pts, certified); unsafe ..."
std::string summarize(const std::vector<ConditionCheck>& conditions) {
  std::ostringstream os;
  for (const ConditionCheck& c : conditions) {
    if (&c != &conditions.front()) os << "; ";
    os << c.name << (c.passed ? " ok" : " VIOLATED") << " worst=" << c.worst
       << " thr=" << c.threshold << " (" << c.points << " pts";
    if (c.certified) os << ", certified";
    os << ")";
  }
  return os.str();
}

}  // namespace

std::vector<Vec> draw_points(const SemialgebraicSet& set, std::size_t count,
                             Rng& rng) {
  std::vector<Rng> streams =
      rng.fork_streams((count + kDrawChunk - 1) / kDrawChunk);
  std::vector<Vec> points(count);
  parallel_for(count, kDrawChunk, [&](std::size_t begin, std::size_t end) {
    Rng& chunk_rng = streams[begin / kDrawChunk];
    for (std::size_t i = begin; i < end; ++i)
      points[i] = set.sample(chunk_rng);
  });
  return points;
}

std::vector<ConditionCheck> check_conditions(
    const Ccds& system, const std::vector<Polynomial>& closed_field,
    const Polynomial& barrier, const Polynomial& lambda, double rho,
    const ConditionPoints& points, double tolerance,
    std::size_t interval_budget) {
  SCS_REQUIRE(barrier.num_vars() == system.num_states,
              "check_conditions: barrier variable count mismatch");
  SCS_REQUIRE(lambda.num_vars() == system.num_states,
              "check_conditions: lambda variable count mismatch");
  const Polynomial decrease =
      lie_derivative(barrier, closed_field) - lambda * barrier;
  const double b_scale = sweep(barrier, points.domain, true).max_abs;
  const double d_scale = sweep(decrease, points.domain, true).max_abs;
  const double b_margin = tolerance * std::max(1.0, b_scale);
  const double d_margin = tolerance * std::max(1.0, d_scale);
  return {
      condition("init", barrier, points.init, system.init_set,
                /*want_min=*/true, -b_margin, b_scale, interval_budget),
      condition("unsafe", barrier, points.unsafe, system.unsafe_set,
                /*want_min=*/false, b_margin, b_scale, interval_budget),
      condition("lambda_identity", decrease, points.domain, system.domain,
                /*want_min=*/true, rho - d_margin, d_scale, interval_budget),
  };
}

const ConditionCheck* first_failure(
    const std::vector<ConditionCheck>& conditions) {
  for (const ConditionCheck& c : conditions)
    if (!c.passed) return &c;
  return nullptr;
}

std::string describe(const ConditionCheck& check) {
  std::ostringstream os;
  os << check.name << " worst=" << check.worst << " thr=" << check.threshold
     << " at (";
  for (std::size_t i = 0; i < check.witness.size(); ++i)
    os << (i ? ", " : "") << check.witness[i];
  os << ")";
  return os.str();
}

const ConditionCheck* ConditionReport::find(const std::string& name) const {
  for (const ConditionCheck& c : conditions)
    if (c.name == name) return &c;
  return nullptr;
}

void hash_append(Fnv1a& h, const ValidationConfig& c) {
  hash_append(h, static_cast<std::uint64_t>(c.samples_per_set));
  hash_append(h, static_cast<std::uint64_t>(c.simulation_rollouts));
  hash_append(h, static_cast<std::uint64_t>(c.simulation_steps));
}

ValidationReport validate_barrier(const Ccds& system,
                                  const std::vector<Polynomial>& controller,
                                  const Polynomial& barrier,
                                  const Polynomial& lambda, double rho,
                                  const ValidationConfig& config, Rng& rng) {
  ConditionPoints points;
  points.init = draw_points(system.init_set, config.samples_per_set, rng);
  points.unsafe = draw_points(system.unsafe_set, config.samples_per_set, rng);
  points.domain = draw_points(system.domain, 4 * config.samples_per_set, rng);
  ValidationReport report;
  report.conditions =
      check_conditions(system, system.closed_loop(controller), barrier,
                       lambda, rho, points, kValidationTolerance);

  McSafetyConfig sim;
  sim.rollouts = config.simulation_rollouts;
  sim.max_steps = config.simulation_steps;
  const McSafetyResult safety = estimate_safety(system, controller, sim, rng);
  report.rollouts = safety.rollouts;
  report.unsafe_rollouts = safety.violations;
  report.passed =
      first_failure(report.conditions) == nullptr && safety.violations == 0;

  std::ostringstream os;
  os << summarize(report.conditions) << "; rollouts "
     << report.rollouts - report.unsafe_rollouts << "/" << report.rollouts
     << " safe";
  report.detail = os.str();
  return report;
}

IndependentCheckReport independent_check(
    const Ccds& system, const std::vector<Polynomial>& controller,
    const Polynomial& barrier, const Polynomial& lambda, double rho,
    const IndependentCheckConfig& config) {
  // Grid points of each set's sampling box that lie in the set, plus MC
  // draws. MC failure (a set too thin for rejection sampling) degrades to
  // grid-only; draw_points forks before drawing, so the later sets' draws
  // do not depend on whether an earlier one failed.
  Rng rng(kAuditSeed);
  bool mc_failed = false;
  const auto collect = [&](const SemialgebraicSet& set) {
    std::vector<Vec> out;
    const std::size_t per_dim = grid_per_dim(set.dim(), config.grid_budget);
    if (per_dim >= 2) {
      for (const Vec& x : set.sampling_box().grid(per_dim))
        if (set.contains(x)) out.push_back(x);
    }
    try {
      for (Vec& x : draw_points(set, config.mc_samples, rng))
        out.push_back(std::move(x));
    } catch (const std::exception&) {
      mc_failed = true;
    }
    return out;
  };
  ConditionPoints points;
  points.init = collect(system.init_set);
  points.unsafe = collect(system.unsafe_set);
  points.domain = collect(system.domain);

  IndependentCheckReport report;
  report.conditions = check_conditions(
      system, system.closed_loop(controller), barrier, lambda, rho, points,
      kAuditTolerance, config.grid_budget);
  report.scale = report.conditions.front().scale;
  report.accepted = first_failure(report.conditions) == nullptr;
  report.detail = std::string(report.accepted ? "ACCEPTED; " : "REJECTED; ") +
                  summarize(report.conditions);
  if (mc_failed) report.detail += "; MC degraded to grid-only on some set";
  return report;
}

IndependentCheckReport independent_check(
    const Ccds& system, const std::vector<Polynomial>& controller,
    const BarrierResult& result, double rho,
    const IndependentCheckConfig& config) {
  return independent_check(system, controller, result.barrier, result.lambda,
                           rho, config);
}

}  // namespace scs
