// Deep Deterministic Policy Gradient (Lillicrap et al. [14]), as used in
// Section 3.1 to train the auxiliary DNN controller u_RL.
//
// Actor: x -> tanh output in [-1,1]^m (scaled by the actuator bound at the
// environment boundary), tanh hidden layers in the "n-30(5)-1" structures
// of Table 2, which uses ReLU (see ddpg.cpp). Critic: (x, a) -> Q value,
// updated by the TD loss (5); actor updated by the deterministic policy
// gradient (6); target networks follow with soft updates. Each minibatch
// update runs as batched matrix math on the calling thread (Mlp::Batch),
// with the bits of a per-sample loop.
#pragma once

#include <vector>

#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "rl/env.hpp"
#include "rl/noise.hpp"
#include "rl/replay.hpp"
#include "util/rng.hpp"

namespace scs {

class Fnv1a;

/// The two DDPG settings a caller sets; every other hyperparameter is a
/// constant in ddpg.cpp.
struct DdpgConfig {
  std::vector<std::size_t> actor_hidden = {30, 30, 30, 30, 30};
  std::size_t warmup_steps = 1000;  // uniform random actions before learning
};

void hash_append(Fnv1a& h, const DdpgConfig& c);

/// The physical control law induced by a stand-alone actor network --
/// exactly what DdpgAgent::control_law returns, but buildable from an actor
/// deserialized out of the artifact store (warm pipeline runs skip training
/// and reconstruct the law from the cached weights).
ControlLaw control_law_from_actor(const Mlp& actor, double control_bound);

struct EpisodeStats {
  double total_reward = 0.0;
  std::size_t steps = 0;
  bool violated = false;
};

struct TrainResult {
  std::vector<EpisodeStats> episodes;
  double mean_recent_return = 0.0;  // mean over the last 10% of episodes
  double recent_safety_rate = 0.0;  // fraction of recent episodes w/o violation
};

struct EvalResult {
  double mean_return = 0.0;
  double safety_rate = 0.0;  // fraction of rollouts avoiding X_u and Psi exit
};

class DdpgAgent {
 public:
  DdpgAgent(std::size_t state_dim, std::size_t action_dim,
            const DdpgConfig& config, Rng& rng);

  /// Greedy normalized action in [-1,1]^m.
  Vec act(const Vec& state) const;

  /// Train for `episodes` episodes on the environment.
  TrainResult train(ControlEnv& env, int episodes, Rng& rng);

  /// Noise-free evaluation rollouts.
  EvalResult evaluate(ControlEnv& env, int episodes, Rng& rng) const;

  /// The trained deterministic policy as a control law producing *physical*
  /// actions (scaled by `control_bound`).
  ControlLaw control_law(double control_bound) const;

  const Mlp& actor() const { return actor_; }
  const Mlp& critic() const { return critic_; }

 private:
  void update_networks(Rng& rng);

  DdpgConfig config_;
  std::size_t state_dim_;
  std::size_t action_dim_;
  Mlp actor_, critic_, actor_target_, critic_target_;
  Adam actor_opt_, critic_opt_;
  ReplayBuffer buffer_;
  OuNoise noise_;
  // Minibatch workspaces, sized once for the minibatch. The targets share
  // them with the nets they track: their results are read before the
  // learners' passes overwrite them.
  Mlp::Batch actor_batch_, critic_batch_;
  Vec actor_grad_, critic_grad_;
  Vec td_target_;   // y per row
  Mat critic_dx_;   // dQ/d(state, action), (state_dim + action_dim) x B
};

}  // namespace scs
