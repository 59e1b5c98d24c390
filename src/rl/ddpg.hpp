// Deep Deterministic Policy Gradient (Lillicrap et al. [14]), as used in
// Section 3.1 to train the auxiliary DNN controller u_RL.
//
// Actor: x -> tanh output in [-1,1]^m (scaled by the actuator bound at the
// environment boundary), ReLU hidden layers -- the "n-30(5)-1" structures of
// Table 2. Critic: (x, a) -> Q value, updated by the TD loss (5); actor
// updated by the deterministic policy gradient (6); target networks follow
// with soft updates. Each minibatch update runs as batched matrix math on
// the calling thread (Mlp::Batch), with the bits of a per-sample loop.
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

struct DdpgConfig {
  std::vector<std::size_t> actor_hidden = {30, 30, 30, 30, 30};
  std::vector<std::size_t> critic_hidden = {64, 64};
  /// Hidden activation of the actor. The paper's Table 2 uses ReLU; tanh
  /// hidden layers give a C-infinity policy surface, which markedly lowers
  /// Algorithm 1's minimax error for the same control performance.
  Activation actor_hidden_activation = Activation::kTanh;
  double actor_lr = 2e-4;
  double critic_lr = 1e-3;
  /// L2 weight decay on the actor: biases the policy toward smooth, small-
  /// weight functions -- the kind a low-degree polynomial can PAC-model.
  double actor_weight_decay = 1e-4;
  /// Max-norm constraint on each actor layer's Frobenius norm (0 = off).
  /// Bounds the policy's global Lipschitz constant by the product of layer
  /// norms, which is what keeps Algorithm 1's minimax error small: a single
  /// sharp ReLU crease anywhere in Psi would dominate e.
  double actor_weight_norm_cap = 0.9;
  double gamma = 0.99;       // reward decay factor, in (0, 1)
  double soft_tau = 0.005;   // target-network tracking rate, in (0, 1]
  std::size_t batch_size = 64;  // > 0
  std::size_t buffer_capacity = 100000;
  std::size_t warmup_steps = 1000;  // uniform random actions before learning
  int updates_per_step = 1;
  // Exploration.
  double noise_sigma = 0.25;
  double noise_theta = 0.15;
  double noise_decay_per_episode = 0.995;
  double noise_sigma_min = 0.02;
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
  const DdpgConfig& config() const { return config_; }

 private:
  void update_networks(Rng& rng);

  DdpgConfig config_;
  std::size_t state_dim_;
  std::size_t action_dim_;
  Mlp actor_, critic_, actor_target_, critic_target_;
  Adam actor_opt_, critic_opt_;
  ReplayBuffer buffer_;
  OuNoise noise_;
  // Minibatch workspaces, sized once for batch_size rows. The targets share
  // them with the nets they track: their results are read before the
  // learners' passes overwrite them.
  Mlp::Batch actor_batch_, critic_batch_;
  Vec actor_grad_, critic_grad_;
  Vec td_target_;   // y per row
  Mat critic_dx_;   // dQ/d(state, action), (state_dim + action_dim) x B
};

}  // namespace scs
