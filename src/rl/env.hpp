// RL environment wrapping a controlled CCDS (Section 3.1).
//
// State space: the system state x; action space: normalized controls in
// [-1,1]^m scaled by the actuator bound; dynamics: RK4 integration of the
// open-loop field under zero-order hold; reward: Eq. (4) of the paper,
//
//   r_t = beta1 * dist(X_u, x_t)                       outside the belt
//   r_t = rhat - min(beta2 / dist(X_u, x_t), dr_min)   inside the belt,
//
// with the paper's constants beta1 = 1, beta2 = 5, delta = 0.1 and
// Delta r_min = 5. Episodes additionally terminate (with a penalty) on
// leaving Psi -- a standard practical detail the paper leaves implicit.
#pragma once

#include "systems/ccds.hpp"
#include "util/rng.hpp"

namespace scs {

class Fnv1a;

// Reward shaping, Eq. (4).
inline constexpr double kRewardBeta1 = 1.0;
inline constexpr double kRewardBeta2 = 5.0;
inline constexpr double kBeltDelta = 0.1;
inline constexpr double kPenaltyCap = 5.0;  // Delta r_min
/// Quadratic action cost on the *normalized* action (standard practice in
/// continuous control; keeps the learned policy smooth instead of
/// bang-bang, which is what makes the PAC surrogate's error small).
inline constexpr double kActionPenalty = 0.3;
/// Fraction of episode restarts drawn uniformly from Psi instead of Theta
/// (random-restart exploration). Algorithm 1 approximates the DNN over
/// all of Psi, so the policy must be trained -- not just extrapolated --
/// there. The paper's literal restarts are Theta-only.
inline constexpr double kRestartDomainFraction = 0.5;
/// Reward of the step that leaves Psi (or diverges), which ends the
/// episode. Entering X_u *inside* Psi does not: the policy also learns
/// meaningful (penalized, Eq. (4) caps the reward at -Delta r_min there)
/// behaviour on the unsafe part of Psi -- which is what makes the DNN
/// PAC-approximable over the whole domain that the scenario program (8)
/// samples. Safety evaluation (DdpgAgent::evaluate) ends at the first
/// violation on its own.
inline constexpr double kTerminalPenalty = 10.0;

struct EnvConfig {
  double dt = 0.02;
  std::size_t max_steps = 200;
  bool use_belt_penalty = true;  // disabled by the reward-shaping ablation
};

void hash_append(Fnv1a& h, const EnvConfig& c);

struct StepResult {
  Vec next_state;
  double reward = 0.0;
  bool done = false;      // horizon, violation, or domain exit
  bool violated = false;  // entered X_u or left Psi
};

class ControlEnv {
 public:
  ControlEnv(const Ccds& system, const EnvConfig& config);

  std::size_t state_dim() const { return system_.num_states; }
  std::size_t action_dim() const { return system_.num_controls; }

  /// Reset for training: samples Theta, or Psi with probability
  /// kRestartDomainFraction (random-restart exploration).
  Vec reset(Rng& rng);

  /// Reset strictly from Theta (used for safety evaluation, Definition 1).
  Vec reset_from_init(Rng& rng);

  /// Apply a normalized action a in [-1,1]^m (scaled internally by the
  /// actuator bound) and advance one dt.
  StepResult step(const Vec& normalized_action);

  /// Reward at a state, per Eq. (4).
  double reward_at(const Vec& x) const;

  const Ccds& system() const { return system_; }
  const Vec& state() const { return state_; }

 private:
  Ccds system_;
  EnvConfig config_;
  Vec state_;
  std::size_t steps_ = 0;
};

}  // namespace scs
