// Barrier-certificate generation for the closed-loop system under the
// synthesized polynomial controller (Section 4, program (12)).
//
// The three conditions of Theorem 1 are encoded with Putinar multipliers:
//
//   (1)  B - sum_i sigma_i g_i            is SOS          (B >= 0 on Theta)
//   (2)  L_f B - lambda B - sum_j phi_j h_j - rho   is SOS (boundary push)
//   (3) -B - rho' - sum_k xi_k q_k        is SOS          (B < 0 on X_u)
//
// lambda(x) makes (2) bilinear; per the paper we either fix lambda to a
// (random) constant / linear polynomial -- an LMI -- or run an alternating
// BMI heuristic (fix lambda, solve for B; fix B, solve for lambda) in place
// of PENBMI.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "poly/polynomial.hpp"
#include "systems/ccds.hpp"
#include "util/cancellation.hpp"
#include "util/rng.hpp"

namespace scs {

class Fnv1a;

enum class LambdaStrategy {
  kZero,         // lambda = 0
  kConstant,     // lambda = random negative constant (LMI)
  kLinear,       // lambda = random linear polynomial (LMI)
  kAlternating,  // alternating BMI heuristic
};

std::string to_string(LambdaStrategy s);

/// Largest identity residual coefficient every SOS program the ladder
/// solves may have (its Gram eigenvalues are held to kSosGramTol).
inline constexpr double kBarrierIdentityTol = 2e-5;

struct BarrierConfig {
  std::vector<int> degree_schedule = {2, 4};  // d_B values to attempt
  double rho = 1e-3;        // strict positivity margin in (2)
  LambdaStrategy lambda_strategy = LambdaStrategy::kConstant;
  int lambda_attempts = 4;   // random lambda retries per degree
  std::uint64_t seed = 7;
  /// Guard: skip degree/dimension combinations whose SDP would exceed this
  /// many equality constraints. The interior-point Schur solve is O(m^3)
  /// per iteration, so m ~ 3000 is the practical single-core ceiling.
  /// Production takes this path; tests reach it only by lowering the limit.
  std::size_t max_sdp_constraints = 3000;
  /// Job-level preemption (borrowed, may be null), handed to every SDP the
  /// ladder solves. Runtime plumbing only -- never hashed.
  const JobControl* control = nullptr;
};

void hash_append(Fnv1a& h, const BarrierConfig& c);

struct BarrierResult {
  bool success = false;
  Polynomial barrier;        // B(x)
  Polynomial lambda;         // the lambda(x) used in (2)
  int degree = 0;            // d_B
  double seconds = 0.0;      // T_p: wall-clock of the whole ladder
  LambdaStrategy strategy_used = LambdaStrategy::kConstant;
  int attempts = 0;          // SOS programs solved, over every rung run
  std::string failure_reason;
  double max_identity_residual = 0.0;
  double min_gram_eigenvalue = 0.0;
  /// How the accepted certificate's final solve was produced: "lmi",
  /// "bmi-lambda" (alternating lambda-step), "bmi-b" (alternating B-step);
  /// "" when no certificate was found. The reported diagnostics above
  /// always belong to this accepted solve.
  std::string accepted_via;
  /// The accepted arm, "constant/d=4/a=1"; arms of a later ladder rung
  /// carry its index, "r2/alternating-BMI/d=2/a=0". "" when no arm
  /// succeeded.
  std::string accepted_arm;
};

/// One rung of the barrier ladder: a closed-loop vector field over the
/// state variables, searched over BarrierConfig::degree_schedule under one
/// lambda strategy.
struct BarrierRung {
  std::vector<Polynomial> closed_field;
  LambdaStrategy strategy = LambdaStrategy::kConstant;
};

/// The whole barrier search as one ordered arm list: rung-major, then
/// degree and attempt. The arms run in that order and the first whose
/// certificate passes the gate is accepted. When an arm is accepted and
/// `accepted_rung` is non-null, it receives that arm's rung.
BarrierResult synthesize_barrier_ladder(const Ccds& system,
                                        const std::vector<BarrierRung>& rungs,
                                        const BarrierConfig& config,
                                        std::size_t* accepted_rung = nullptr);

/// Synthesize a barrier certificate for the closed-loop system
/// f(x, p(x)): a one-rung ladder under config.lambda_strategy.
/// `controller` has one polynomial per control input.
BarrierResult synthesize_barrier(const Ccds& system,
                                 const std::vector<Polynomial>& controller,
                                 const BarrierConfig& config);

}  // namespace scs
