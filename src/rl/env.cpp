#include "rl/env.hpp"

#include <algorithm>
#include <cmath>

#include "ode/integrator.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace scs {

ControlEnv::ControlEnv(const Ccds& system, const EnvConfig& config)
    : system_(system), config_(config), state_(system.num_states, 0.0) {
  system_.validate();
  SCS_REQUIRE(config.dt > 0.0, "ControlEnv: dt must be positive");
  SCS_REQUIRE(config.max_steps > 0, "ControlEnv: max_steps must be positive");
}

Vec ControlEnv::reset(Rng& rng) {
  if (rng.uniform01() < kRestartDomainFraction) {
    // Domain restart: anywhere in Psi (including the unsafe part -- the
    // policy must be well defined wherever the PAC stage will sample).
    state_ = system_.domain.sample(rng);
    steps_ = 0;
    return state_;
  }
  return reset_from_init(rng);
}

Vec ControlEnv::reset_from_init(Rng& rng) {
  state_ = system_.init_set.sample(rng);
  steps_ = 0;
  return state_;
}

double ControlEnv::reward_at(const Vec& x) const {
  const double dist = system_.unsafe_set.distance_to(x);
  const double rhat = kRewardBeta1 * dist;
  if (!config_.use_belt_penalty) return rhat;
  if (dist < kBeltDelta) {
    const double penalty =
        (dist > 0.0) ? std::min(kRewardBeta2 / dist, kPenaltyCap)
                     : kPenaltyCap;
    return rhat - penalty;
  }
  return rhat;
}

StepResult ControlEnv::step(const Vec& normalized_action) {
  SCS_REQUIRE(normalized_action.size() == system_.num_controls,
              "ControlEnv::step: action dimension mismatch");
  Vec u(normalized_action);
  for (auto& v : u) v = std::clamp(v, -1.0, 1.0) * system_.control_bound;

  const Vec u_held = u;
  const auto field = [this, &u_held](const Vec& x) {
    return system_.eval_open(x, u_held);
  };
  StepResult out;
  out.next_state = rk4_step(field, state_, config_.dt);
  ++steps_;

  bool finite = true;
  for (double v : out.next_state)
    if (!std::isfinite(v)) finite = false;

  const bool in_unsafe = finite && system_.unsafe_set.contains(out.next_state);
  const bool in_domain = finite && system_.domain.contains(out.next_state);

  if (!finite || !in_domain) {
    // Outside the modeled domain: nothing sensible to learn there.
    out.violated = true;
    out.done = true;
    out.reward = -kTerminalPenalty;
    if (finite) state_ = out.next_state;
    return out;
  }
  // Entering X_u is a non-terminal violation: Eq. (4) already caps the
  // reward at -Delta r_min there (dist = 0 lands in the belt branch).
  out.violated = in_unsafe;

  out.reward = reward_at(out.next_state);
  double a2 = 0.0;
  for (double v : normalized_action)
    a2 += std::clamp(v, -1.0, 1.0) * std::clamp(v, -1.0, 1.0);
  out.reward -=
      kActionPenalty * a2 / static_cast<double>(system_.num_controls);
  out.done = steps_ >= config_.max_steps;
  state_ = out.next_state;
  return out;
}


// The constants keep their places and types from when they were config
// fields, so stores written then still serve this build.
void hash_append(Fnv1a& h, const EnvConfig& c) {
  hash_append(h, c.dt);
  hash_append(h, static_cast<std::uint64_t>(c.max_steps));
  hash_append(h, kRewardBeta1);
  hash_append(h, kRewardBeta2);
  hash_append(h, kBeltDelta);
  hash_append(h, kPenaltyCap);
  hash_append(h, c.use_belt_penalty);
  hash_append(h, kActionPenalty);
  hash_append(h, kRestartDomainFraction);
  hash_append(h, kTerminalPenalty);
  hash_append(h, false);  // unsafe entry never ends an episode
}

}  // namespace scs
