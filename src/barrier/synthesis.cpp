#include "barrier/synthesis.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>

#include "barrier/independent_check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "poly/basis.hpp"
#include "sos/sos_program.hpp"
#include "util/cancellation.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"
#include "util/hash.hpp"

namespace scs {

std::string to_string(LambdaStrategy s) {
  switch (s) {
    case LambdaStrategy::kZero:
      return "zero";
    case LambdaStrategy::kConstant:
      return "constant";
    case LambdaStrategy::kLinear:
      return "linear";
    case LambdaStrategy::kAlternating:
      return "alternating-BMI";
  }
  return "?";
}

namespace {

/// Relative margin of the per-arm Theorem-1 gate (barrier/independent_check).
constexpr double kGateTolerance = 2e-3;

int even_ceil(int d) { return (d % 2 == 0) ? d : d + 1; }

int max_degree_of(const std::vector<Polynomial>& polys) {
  int d = 0;
  for (const auto& p : polys) d = std::max(d, p.degree());
  return d;
}

/// Estimated number of equality constraints for the three identities.
std::size_t estimate_constraints(std::size_t n, int d1, int d2, int d3) {
  return static_cast<std::size_t>(monomial_count(n, d1)) +
         static_cast<std::size_t>(monomial_count(n, d2)) +
         static_cast<std::size_t>(monomial_count(n, d3));
}

struct ProgramOutcome {
  bool feasible = false;
  Polynomial barrier;
  Polynomial lambda;
  double max_identity_residual = 0.0;
  double min_gram_eigenvalue = 0.0;
  /// The SDP proved the program infeasible (SdpStatus::kInfeasible).
  bool proven_infeasible = false;
  std::string failure_reason;
};

/// Build and solve one instance of program (12).
///
/// Exactly one of (fixed_barrier, barrier free) and exactly one of
/// (fixed_lambda, lambda free) applies: pass fixed_* == nullptr to make that
/// polynomial a decision variable. Making both free would be the BMI; that
/// combination is rejected.
ProgramOutcome solve_program(const Ccds& system,
                             const std::vector<Polynomial>& closed_field,
                             int barrier_degree, int lambda_degree,
                             const Polynomial* fixed_barrier,
                             const Polynomial* fixed_lambda,
                             const BarrierConfig& config) {
  SCS_REQUIRE(!(fixed_barrier == nullptr && fixed_lambda == nullptr),
              "solve_program: B and lambda cannot both be free (BMI)");
  const std::size_t n = system.num_states;
  ProgramOutcome out;

  const auto& g = system.init_set.inequalities();
  const auto& h = system.domain.inequalities();
  const auto& q = system.unsafe_set.inequalities();

  const int field_deg = std::max(1, max_degree_of(closed_field));
  const int d_b = (fixed_barrier != nullptr)
                      ? std::max(1, fixed_barrier->degree())
                      : barrier_degree;
  const int d_lambda = (fixed_lambda != nullptr)
                           ? std::max(0, fixed_lambda->degree())
                           : lambda_degree;

  // Identity degrees (each rounded up to even for the SOS residual).
  const int d1 = even_ceil(std::max(d_b, max_degree_of(g)));
  const int d2 = even_ceil(std::max({field_deg + d_b - 1, d_lambda + d_b,
                                     max_degree_of(h)}));
  const int d3 = even_ceil(std::max(d_b, max_degree_of(q)));

  const std::size_t est = estimate_constraints(n, d1, d2, d3);
  if (est > config.max_sdp_constraints) {
    out.failure_reason = "SDP size guard: ~" + std::to_string(est) +
                         " constraints exceeds limit";
    return out;
  }

  SosProgram prog(n);
  const Polynomial one = Polynomial::constant(n, 1.0);

  // Decision polynomials.
  SosProgram::PolyVar b_var{}, lambda_var{};
  const bool b_free = (fixed_barrier == nullptr);
  const bool lambda_free = (fixed_lambda == nullptr);
  if (b_free) {
    b_var = prog.add_free_poly(monomials_up_to(n, d_b));
    // Normalize B at the center of Theta: removes the degenerate B ~ 0
    // solution that would otherwise satisfy all identities within numerical
    // noise (certificates scale freely, so this loses no generality as long
    // as B is positive at the chosen anchor -- guaranteed by condition (i)
    // up to the measure-zero case B(x_c) = 0).
    prog.add_point_constraint(b_var,
                              system.init_set.sampling_box().center(), 1.0);
  }
  if (lambda_free)
    lambda_var = prog.add_free_poly(monomials_up_to(n, d_lambda));

  const auto sos_multiplier = [&](int identity_degree,
                                  int constraint_degree) {
    const int gd = std::max(0, (identity_degree - constraint_degree) / 2);
    return prog.add_sos_poly(monomials_up_to(n, gd));
  };

  // ---- Identity (1): B - sum sigma_i g_i - s0 == 0 on coefficients.
  {
    std::vector<SosProgram::Term> terms;
    Polynomial constant(n);
    if (b_free)
      terms.push_back({one, b_var, {}});
    else
      constant += *fixed_barrier;
    for (const auto& gi : g) {
      const auto sigma = sos_multiplier(d1, gi.degree());
      terms.push_back({-gi, sigma, {}});
    }
    const auto s0 = prog.add_sos_poly(monomials_up_to(n, d1 / 2));
    terms.push_back({-one, s0, {}});
    prog.add_identity(constant, std::move(terms));
  }

  // ---- Identity (2): L_f B - lambda B - sum phi_j h_j - rho - s1 == 0.
  {
    std::vector<SosProgram::Term> terms;
    Polynomial constant = Polynomial::constant(n, -config.rho);
    if (b_free) {
      // L_f B: one derivative term per state.
      for (std::size_t i = 0; i < n; ++i)
        terms.push_back({closed_field[i], b_var, i});
      // -lambda * B (lambda is fixed here).
      terms.push_back({-(*fixed_lambda), b_var, {}});
    } else {
      // B fixed: L_f B is a known polynomial; -lambda B has lambda free.
      constant += lie_derivative(*fixed_barrier, closed_field);
      if (lambda_free)
        terms.push_back({-(*fixed_barrier), lambda_var, {}});
      else
        constant -= (*fixed_lambda) * (*fixed_barrier);
    }
    for (const auto& hj : h) {
      const auto phi = sos_multiplier(d2, hj.degree());
      terms.push_back({-hj, phi, {}});
    }
    const auto s1 = prog.add_sos_poly(monomials_up_to(n, d2 / 2));
    terms.push_back({-one, s1, {}});
    prog.add_identity(constant, std::move(terms));
  }

  // ---- Identity (3): -B - rho' - sum xi_k q_k - s2 == 0.
  {
    std::vector<SosProgram::Term> terms;
    Polynomial constant = Polynomial::constant(n, -config.rho_prime);
    if (b_free)
      terms.push_back({-one, b_var, {}});
    else
      constant -= *fixed_barrier;
    for (const auto& qk : q) {
      const auto xi = sos_multiplier(d3, qk.degree());
      terms.push_back({-qk, xi, {}});
    }
    const auto s2 = prog.add_sos_poly(monomials_up_to(n, d3 / 2));
    terms.push_back({-one, s2, {}});
    prog.add_identity(constant, std::move(terms));
  }

  const auto result =
      prog.solve(config.sdp, config.identity_tol, config.gram_tol);
  out.max_identity_residual = 0.0;
  for (double r : result.identity_residuals)
    out.max_identity_residual = std::max(out.max_identity_residual, r);
  out.min_gram_eigenvalue = result.min_gram_eigenvalue;
  out.proven_infeasible = result.sdp.status == SdpStatus::kInfeasible;
  if (!result.values.empty()) {
    out.barrier = b_free ? result.value(b_var) : *fixed_barrier;
    out.lambda = lambda_free ? result.value(lambda_var) : *fixed_lambda;
  }
  out.feasible = result.feasible;
  if (!result.feasible) out.failure_reason = result.failure_reason;
  return out;
}

Polynomial random_lambda(std::size_t n, LambdaStrategy strategy, int attempt,
                         Rng& rng) {
  switch (strategy) {
    case LambdaStrategy::kZero:
      return Polynomial(n);
    case LambdaStrategy::kConstant: {
      // A negative constant: on the zero level set the term vanishes, while
      // inside {B > 0} it relaxes the Lie condition (L_f B >= lambda B + rho
      // holds near equilibria only when lambda < 0).
      const double c = (attempt == 0) ? -1.0 : rng.uniform(-2.5, -0.1);
      return Polynomial::constant(n, c);
    }
    case LambdaStrategy::kLinear:
    case LambdaStrategy::kAlternating: {
      Polynomial l = Polynomial::constant(n, rng.uniform(-2.0, -0.2));
      for (std::size_t i = 0; i < n; ++i)
        l += Polynomial::variable(n, i) * rng.uniform(-0.3, 0.3);
      return l;
    }
  }
  return Polynomial(n);
}

// ---- The ladder as one explicit arm list.
//
// One arm = one (rung, degree, lambda-strategy, attempt) cell of the
// ladder, self-contained: its own Rng stream (forked by its index within
// its rung from BarrierConfig::seed, so an arm's draws never depend on
// which other arms ran or what they returned) and its own JobControl
// scope. One driver walks the arms of each rung in order or races them,
// and cancels the rest once one wins.

struct Arm {
  std::size_t rung = 0;
  int degree = 0;  // d_B
  LambdaStrategy strategy = LambdaStrategy::kConstant;
  int attempt = 0;         // lambda retry within the degree
  std::size_t stream = 0;  // index within the rung = its Rng stream
};

std::string arm_desc(const Arm& arm) {
  std::string desc = to_string(arm.strategy) + "/d=" +
                     std::to_string(arm.degree) + "/a=" +
                     std::to_string(arm.attempt);
  if (arm.rung > 0) desc = "r" + std::to_string(arm.rung) + "/" + desc;
  return desc;
}

/// Flatten the ladder. Rung-major, then degree (cheap degrees first),
/// strategy and attempt: with one rung and one strategy this is exactly
/// the classic nested degree/attempt loop.
std::vector<Arm> enumerate_arms(const std::vector<BarrierRung>& rungs,
                                const BarrierConfig& config) {
  std::vector<Arm> arms;
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    std::size_t stream = 0;
    for (int d_b : config.degree_schedule) {
      SCS_REQUIRE(d_b >= 1, "synthesize_barrier: degrees must be >= 1");
      for (LambdaStrategy strategy : rungs[r].strategies) {
        const int attempts = (strategy == LambdaStrategy::kZero)
                                 ? 1
                                 : config.lambda_attempts;
        for (int attempt = 0; attempt < attempts; ++attempt)
          arms.push_back({r, d_b, strategy, attempt, stream++});
      }
    }
  }
  return arms;
}

struct ArmOutcome {
  /// The final solve of the arm. When feasible, the diagnostics inside are
  /// those of the *accepted* solve (lambda-step, B-step, or plain LMI).
  ProgramOutcome program;
  /// "lmi" | "bmi-lambda" | "bmi-b" when feasible, "" otherwise.
  std::string accepted_via;
  int attempts = 0;    // SOS programs solved by this arm
  int infeasible = 0;  // of those, proven infeasible by the SDP
  /// Stopped by the arm's JobControl (race loser or job-level stop) rather
  /// than by running out of ideas.
  bool preempted = false;
};

/// One complete arm: draw lambda, solve the LMI, run the alternating BMI
/// recovery when configured, gate the extracted certificate. `rng` is the
/// arm's private stream; `control` its cancellation scope.
ArmOutcome run_arm(const Ccds& system,
                   const std::vector<Polynomial>& closed_field,
                   const Arm& arm, const BarrierConfig& config,
                   const JobControl* control, Rng rng) {
  ArmOutcome out;
  if (stop_requested(control)) {
    out.preempted = true;
    return out;
  }
  BarrierConfig cfg = config;
  cfg.sdp.control = control;  // preempts every inner solve mid-interior-point

  Polynomial lambda =
      random_lambda(system.num_states, arm.strategy, arm.attempt, rng);
  ++out.attempts;
  ProgramOutcome outcome = solve_program(
      system, closed_field, arm.degree,
      lambda.degree() < 0 ? 0 : lambda.degree(), nullptr, &lambda, cfg);
  out.infeasible += outcome.proven_infeasible;
  std::string via = "lmi";

  // Alternating BMI heuristic: bounce between the lambda-step (B fixed)
  // and the B-step (lambda fixed), starting from the best iterate of the
  // failed LMI solve.
  if (!outcome.feasible && arm.strategy == LambdaStrategy::kAlternating &&
      !outcome.barrier.is_zero()) {
    Polynomial b_cur = outcome.barrier;
    for (int round = 0; round < config.bmi_rounds && !outcome.feasible;
         ++round) {
      if (stop_requested(control)) break;
      // lambda-step: fix B, free lambda (degree 1).
      ++out.attempts;
      ProgramOutcome lam_step = solve_program(system, closed_field,
                                              arm.degree, 1, &b_cur, nullptr,
                                              cfg);
      out.infeasible += lam_step.proven_infeasible;
      if (lam_step.lambda.is_zero() && !lam_step.feasible) break;
      lambda = lam_step.lambda;
      if (lam_step.feasible) {
        // Adopt the accepted solve wholesale -- barrier, lambda, AND its
        // diagnostics (the residual/eigenvalue of the earlier failed solve
        // must not outlive it).
        outcome = lam_step;
        via = "bmi-lambda";
        break;
      }
      if (stop_requested(control)) break;
      // B-step: fix lambda, free B.
      ++out.attempts;
      ProgramOutcome b_step =
          solve_program(system, closed_field, arm.degree, lambda.degree(),
                        nullptr, &lambda, cfg);
      out.infeasible += b_step.proven_infeasible;
      // The last solve's diagnostics stand even when the B-step collapses
      // to the zero polynomial and the recovery is abandoned.
      outcome.max_identity_residual = b_step.max_identity_residual;
      outcome.min_gram_eigenvalue = b_step.min_gram_eigenvalue;
      if (b_step.barrier.is_zero()) break;
      b_cur = b_step.barrier;
      outcome = b_step;
      via = "bmi-b";
    }
  }

  // The sampled Theorem-1 gate on the extracted certificate, drawn from the
  // arm's own stream (so a replayed arm gates identically). The SOS identity
  // plus PSD Gram already imply the conditions up to numerical slack; this
  // catches solutions where that slack is not small. Coordinates here are
  // the unit-box ones the ladder solves in.
  if (outcome.feasible) {
    ConditionPoints points;
    points.init = draw_points(system.init_set, 500, rng);
    points.unsafe = draw_points(system.unsafe_set, 500, rng);
    points.domain = draw_points(system.domain, 2000, rng);
    const std::vector<ConditionCheck> conditions = check_conditions(
        system, closed_field, outcome.barrier, outcome.lambda, config.rho,
        points, kGateTolerance);
    if (const ConditionCheck* failed = first_failure(conditions)) {
      outcome.feasible = false;
      outcome.failure_reason =
          "certificate failed the sampled Theorem-1 gate: " + describe(*failed);
    }
  }
  out.preempted = stop_requested(control);
  if (out.preempted) outcome.feasible = false;
  out.accepted_via = outcome.feasible ? via : "";
  out.program = std::move(outcome);
  return out;
}

/// Diagonal rescaling of a semialgebraic set: y-space member iff x = S y is
/// an x-space member. The analytic distance (if any) is dropped; the
/// barrier stage only needs membership and sampling.
SemialgebraicSet scale_set(const SemialgebraicSet& set, const Vec& s) {
  std::vector<Polynomial> ineqs;
  ineqs.reserve(set.inequalities().size());
  for (const auto& g : set.inequalities()) ineqs.push_back(g.scale_vars(s));
  Vec lo = set.sampling_box().lo;
  Vec hi = set.sampling_box().hi;
  for (std::size_t i = 0; i < s.size(); ++i) {
    lo[i] /= s[i];
    hi[i] /= s[i];
  }
  return SemialgebraicSet(std::move(ineqs), Box(lo, hi));
}

}  // namespace

std::vector<LambdaStrategy> base_strategies(const BarrierConfig& config) {
  if (!config.race.strategies.empty()) return config.race.strategies;
  return {config.lambda_strategy};
}

BarrierResult synthesize_barrier_ladder(const Ccds& system_in,
                                        const std::vector<BarrierRung>& rungs,
                                        const BarrierConfig& config,
                                        std::size_t* winning_rung) {
  BarrierResult result;
  Stopwatch sw;

  // ---- Rescale the problem to the unit box: x = S y with S = diag(s).
  // Degree-8+ monomials on a box reaching |x_i| = 5 take values ~ 1e7, so
  // coefficient-level SOS residual tolerances would not control pointwise
  // error; on [-1,1]^n they do. ydot = S^{-1} f(S y).
  const std::size_t n = system_in.num_states;
  const Box& box = system_in.domain.sampling_box();
  Vec s(n), s_inv(n);
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = std::max({std::fabs(box.lo[i]), std::fabs(box.hi[i]), 1e-9});
    s_inv[i] = 1.0 / s[i];
  }
  Ccds system = system_in;  // shallow copy; only the sets are rescaled
  system.init_set = scale_set(system_in.init_set, s);
  system.domain = scale_set(system_in.domain, s);
  system.unsafe_set = scale_set(system_in.unsafe_set, s);
  std::vector<std::vector<Polynomial>> closed_fields;
  for (const BarrierRung& rung : rungs) {
    SCS_REQUIRE(rung.closed_field.size() == n,
                "synthesize_barrier_ladder: field dimension mismatch");
    std::vector<Polynomial>& field = closed_fields.emplace_back();
    for (std::size_t i = 0; i < n; ++i)
      field.push_back(rung.closed_field[i].scale_vars(s) * (1.0 / s[i]));
  }
  std::vector<Arm> arms = enumerate_arms(rungs, config);
  // fork_streams is prefix-stable, so one fork serves every rung: arm k of
  // any rung draws stream k, exactly what arm k of a one-rung ladder would.
  const std::vector<Rng> streams = Rng(config.seed).fork_streams(arms.size());

  // Deterministic replay is the same search over a one-arm grid: the
  // recorded arm under its recorded stream, bitwise-equal to the result it
  // reproduces (arm numerics are schedule-independent by construction).
  const int replay_arm = config.race.replay_arm;
  result.raced = config.race.enabled || replay_arm >= 0;
  if (replay_arm >= 0) {
    if (static_cast<std::size_t>(replay_arm) >= arms.size()) {
      result.seconds = sw.seconds();
      result.failure_reason = "replay_arm out of range for the arm grid";
      return result;
    }
    arms = {arms[static_cast<std::size_t>(replay_arm)]};
  }

  std::deque<JobControl> controls;  // one child scope per arm; never moves
  for (std::size_t i = 0; i < arms.size(); ++i)
    controls.emplace_back(config.sdp.control);
  std::vector<ArmOutcome> outcomes(arms.size());
  std::atomic<int> winner{-1};

  // The one arm-loop body of serial, raced and replayed runs. The first
  // feasible arm claims `winner` and cancels the rest.
  const auto run_one = [&](std::size_t i) {
    if (winner.load(std::memory_order_acquire) >= 0) {
      outcomes[i].preempted = true;
      return;
    }
    // One span per arm lifetime: winners and mid-solve-cancelled losers
    // are told apart by the race.winner / race.preempted instants inside.
    TraceSpan arm_span(trace_enabled() ? "barrier.arm:" + arm_desc(arms[i])
                                       : std::string());
    outcomes[i] = run_arm(system, closed_fields[arms[i].rung], arms[i], config,
                          &controls[i], streams[arms[i].stream]);
    if (!outcomes[i].program.feasible) {
      if (outcomes[i].preempted) trace_instant("race.preempted");
      return;
    }
    int expected = -1;
    if (winner.compare_exchange_strong(expected, static_cast<int>(i),
                                       std::memory_order_acq_rel)) {
      trace_instant("race.winner");
      for (std::size_t j = 0; j < arms.size(); ++j)
        if (j != i) controls[j].cancel();
    } else {
      // Photo finish: another arm won first; this certificate is discarded
      // so the result matches what a replay of the winner produces.
      outcomes[i].preempted = true;
      outcomes[i].program.feasible = false;
      trace_instant("race.preempted");
    }
  };

  // Rungs run in order, so an earlier rung keeps its priority. A job stop
  // needs no gate here: each remaining arm returns at its control check
  // without building a program.
  for (std::size_t begin = 0, end = 0;
       begin < arms.size() && winner.load(std::memory_order_acquire) < 0;
       begin = end) {
    while (end < arms.size() && arms[end].rung == arms[begin].rung) ++end;
    // Racing gives every arm its own chunk on the pool; otherwise the rung
    // is one chunk, run in order on the calling thread. parallel_for lets
    // the caller claim chunks too, so racing composes with outer
    // parallelism (synthesize_many fan-out) without deadlock even when
    // every pool worker is busy.
    parallel_for(end - begin, config.race.enabled ? 1 : end - begin,
                 [&](std::size_t b, std::size_t e) {
                   for (std::size_t i = begin + b; i < begin + e; ++i)
                     run_one(i);
                 });
  }

  const int win = winner.load(std::memory_order_acquire);
  for (const ArmOutcome& out : outcomes) {
    result.attempts += out.attempts;
    if (out.attempts > 0) ++result.arms_launched;  // built a program
    if (out.preempted && config.race.enabled) ++result.arms_cancelled;
  }
  result.seconds = sw.seconds();
  if (config.race.enabled && metrics_enabled()) {
    MetricsRegistry& registry = MetricsRegistry::instance();
    registry.counter("race.arms_launched").add(result.arms_launched);
    registry.counter("race.arms_cancelled").add(result.arms_cancelled);
    if (win >= 0)
      registry.histogram("race.winner_latency_ms")
          .observe(static_cast<std::uint64_t>(result.seconds * 1e3));
  }

  if (win >= 0) {
    // Adopt the winner's accepted solve, mapping the certificate back to
    // the original coordinates: B(x) = B_y(S^{-1} x).
    const Arm& arm = arms[static_cast<std::size_t>(win)];
    const ArmOutcome& out = outcomes[static_cast<std::size_t>(win)];
    result.success = true;
    result.barrier = out.program.barrier.scale_vars(s_inv);
    result.lambda = out.program.lambda.scale_vars(s_inv);
    result.degree = arm.degree;
    result.strategy_used = arm.strategy;
    result.max_identity_residual = out.program.max_identity_residual;
    result.min_gram_eigenvalue = out.program.min_gram_eigenvalue;
    result.accepted_via = out.accepted_via;
    result.winner_arm = replay_arm >= 0 ? replay_arm : win;
    result.winner_arm_desc = arm_desc(arm);
    if (winning_rung != nullptr) *winning_rung = arm.rung;
    log_info("barrier: arm ", result.winner_arm_desc,
             " found a certificate after ", result.attempts, " attempt(s), ",
             result.seconds, "s");
  } else if (stop_requested(config.sdp.control)) {
    result.failure_reason = "preempted (job cancelled or deadline)";
  } else if (!outcomes.empty()) {
    // Every arm ran to completion; surface the last arm's diagnostics
    // (deterministic: independent of scheduling): which arm, how many of
    // its SOS programs the SDP proved infeasible, and why its last failed.
    const ArmOutcome& last = outcomes.back();
    result.max_identity_residual = last.program.max_identity_residual;
    result.min_gram_eigenvalue = last.program.min_gram_eigenvalue;
    result.failure_reason =
        "arm " + arm_desc(arms.back()) + ": " +
        std::to_string(last.infeasible) + " of " +
        std::to_string(last.attempts) +
        " SOS program(s) proven infeasible; last: " +
        last.program.failure_reason;
    if (replay_arm >= 0)
      result.failure_reason =
          "replayed arm no longer yields a certificate: " +
          result.failure_reason;
  }
  if (!result.success && result.failure_reason.empty())
    result.failure_reason = "no feasible certificate in the degree schedule";
  return result;
}

BarrierResult synthesize_barrier(const Ccds& system,
                                 const std::vector<Polynomial>& controller,
                                 const BarrierConfig& config) {
  return synthesize_barrier_ladder(
      system, {{system.closed_loop(controller), base_strategies(config)}},
      config);
}

void hash_append(Fnv1a& h, const BarrierConfig& c) {
  hash_append(h, c.degree_schedule);
  hash_append(h, c.rho);
  hash_append(h, c.rho_prime);
  hash_append(h, static_cast<int>(c.lambda_strategy));
  hash_append(h, c.lambda_attempts);
  hash_append(h, c.bmi_rounds);
  hash_append(h, c.seed);
  hash_append(h, c.sdp);
  hash_append(h, c.identity_tol);
  hash_append(h, c.gram_tol);
  hash_append(h, static_cast<std::uint64_t>(c.max_sdp_constraints));
  hash_append(h, c.race.enabled ? 1 : 0);
  hash_append(h, static_cast<std::uint64_t>(c.race.strategies.size()));
  for (LambdaStrategy s : c.race.strategies)
    hash_append(h, static_cast<int>(s));
  hash_append(h, c.race.replay_arm);
}

}  // namespace scs
