#include "rl/ddpg.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/log.hpp"
#include "util/hash.hpp"

namespace scs {

DdpgAgent::DdpgAgent(std::size_t state_dim, std::size_t action_dim,
                     const DdpgConfig& config, Rng& rng)
    : config_(config),
      state_dim_(state_dim),
      action_dim_(action_dim),
      actor_(state_dim, config.actor_hidden, action_dim,
             config.actor_hidden_activation, Activation::kTanh, rng),
      critic_(state_dim + action_dim, config.critic_hidden, 1,
              Activation::kRelu, Activation::kIdentity, rng),
      actor_target_(actor_),
      critic_target_(critic_),
      actor_opt_(actor_.parameter_count(), {.lr = config.actor_lr}),
      critic_opt_(critic_.parameter_count(), {.lr = config.critic_lr}),
      buffer_(config.buffer_capacity),
      noise_(action_dim, config.noise_theta, config.noise_sigma) {
  SCS_REQUIRE(state_dim > 0 && action_dim > 0, "DdpgAgent: bad dimensions");
  SCS_REQUIRE(config.gamma > 0.0 && config.gamma < 1.0,
              "DdpgAgent: gamma must be in (0,1)");
  // Small final-layer initialization (Lillicrap et al.): keeps the tanh
  // actor out of saturation early, which otherwise collapses the policy to
  // a constant +-1 for hundreds of episodes.
  actor_.scale_output_layer(0.01);
  critic_.scale_output_layer(0.1);
  actor_target_ = actor_;
  critic_target_ = critic_;
}

Vec DdpgAgent::act(const Vec& state) const { return actor_.forward(state); }

void DdpgAgent::update_networks(Rng& rng) {
  if (buffer_.size() < config_.batch_size) return;
  const auto batch = buffer_.sample(config_.batch_size, rng);
  const double inv_n = 1.0 / static_cast<double>(batch.size());

  // ---- Critic update: minimize (5), the TD error against the targets.
  Vec critic_grad(critic_.parameter_count(), 0.0);
  for (const Transition* t : batch) {
    double y = t->reward;
    if (!t->done) {
      const Vec a2 = actor_target_.forward(t->next_state);
      const Vec q2 = critic_target_.forward(concat(t->next_state, a2));
      y += config_.gamma * q2[0];
    }
    Mlp::Workspace ws;
    const Vec q = critic_.forward(concat(t->state, t->action), ws);
    // d/dq of (y - q)^2 / N = -2 (y - q) / N.
    Vec dq(1, -2.0 * (y - q[0]) * inv_n);
    critic_.backward(ws, dq, critic_grad);
  }
  Vec critic_params = critic_.parameters();
  critic_opt_.step(critic_params, critic_grad);
  critic_.set_parameters(critic_params);

  // ---- Actor update: ascend Q(x, actor(x)), i.e. minimize (6).
  Vec actor_grad(actor_.parameter_count(), 0.0);
  // Sink for the critic's parameter gradient, which the actor step never
  // reads; backward only accumulates into it, so one buffer serves the
  // whole batch.
  Vec scratch(critic_.parameter_count(), 0.0);
  for (const Transition* t : batch) {
    Mlp::Workspace actor_ws;
    const Vec a = actor_.forward(t->state, actor_ws);
    Mlp::Workspace critic_ws;
    critic_.forward(concat(t->state, a), critic_ws);
    // dJ/dq = -1/N  (J = -mean Q).
    Vec dq(1, -inv_n);
    const Vec dinput = critic_.backward(critic_ws, dq, scratch);
    // Slice dJ/da from the critic's input gradient, then apply inverting
    // gradients (Hausknecht & Stone): attenuate the component that pushes an
    // action toward its bound proportionally to the remaining headroom, so
    // the tanh actor never drives itself into saturation.
    Vec da(action_dim_);
    for (std::size_t i = 0; i < action_dim_; ++i) {
      double g = dinput[state_dim_ + i];
      const double ai = a[i];
      // The parameter step moves a along -g.
      g *= (g < 0.0) ? 0.5 * (1.0 - ai) : 0.5 * (1.0 + ai);
      da[i] = g;
    }
    actor_.backward(actor_ws, da, actor_grad);
  }
  Vec actor_params = actor_.parameters();
  if (config_.actor_weight_decay > 0.0)
    actor_grad.axpy(config_.actor_weight_decay, actor_params);
  actor_opt_.step(actor_params, actor_grad);
  actor_.set_parameters(actor_params);
  if (config_.actor_weight_norm_cap > 0.0) {
    // Project each layer back into the Frobenius ball (max-norm constraint).
    for (std::size_t k = 0; k < actor_.layer_count(); ++k) {
      Mat& w = actor_.mutable_weight(k);
      const double norm = w.frobenius_norm();
      if (norm > config_.actor_weight_norm_cap)
        w *= config_.actor_weight_norm_cap / norm;
    }
  }

  // ---- Soft target tracking.
  actor_target_.soft_update_from(actor_, config_.soft_tau);
  critic_target_.soft_update_from(critic_, config_.soft_tau);
}

TrainResult DdpgAgent::train(ControlEnv& env, int episodes, Rng& rng) {
  SCS_REQUIRE(env.state_dim() == state_dim_ && env.action_dim() == action_dim_,
              "DdpgAgent::train: environment dimensions mismatch");
  TrainResult result;
  std::size_t global_step = 0;
  double sigma = config_.noise_sigma;

  for (int ep = 0; ep < episodes; ++ep) {
    Vec x = env.reset(rng);
    noise_.reset();
    noise_.set_sigma(sigma);
    EpisodeStats stats;
    for (;;) {
      Vec a;
      if (global_step < config_.warmup_steps) {
        a = Vec(rng.uniform_vector(action_dim_, -1.0, 1.0));
      } else {
        a = actor_.forward(x);
        a += noise_.sample(rng);
        for (auto& v : a) v = std::clamp(v, -1.0, 1.0);
      }
      const StepResult sr = env.step(a);
      buffer_.add({x, a, sr.reward, sr.next_state, sr.done});
      stats.total_reward += sr.reward;
      stats.violated = stats.violated || sr.violated;
      ++stats.steps;
      ++global_step;

      if (global_step >= config_.warmup_steps) {
        for (int k = 0; k < config_.updates_per_step; ++k)
          update_networks(rng);
      }

      if (sr.done) break;
      x = sr.next_state;
    }
    result.episodes.push_back(stats);
    sigma = std::max(config_.noise_sigma_min,
                     sigma * config_.noise_decay_per_episode);
    if ((ep + 1) % 50 == 0)
      log_info("ddpg: episode ", ep + 1, "/", episodes, " return ",
               stats.total_reward, (stats.violated ? " (violated)" : ""));
  }

  // Aggregate statistics over the last 10% (at least 1) of episodes.
  const std::size_t window =
      std::max<std::size_t>(1, result.episodes.size() / 10);
  double sum = 0.0;
  int safe = 0;
  for (std::size_t i = result.episodes.size() - window;
       i < result.episodes.size(); ++i) {
    sum += result.episodes[i].total_reward;
    if (!result.episodes[i].violated) ++safe;
  }
  result.mean_recent_return = sum / static_cast<double>(window);
  result.recent_safety_rate =
      static_cast<double>(safe) / static_cast<double>(window);
  return result;
}

EvalResult DdpgAgent::evaluate(ControlEnv& env, int episodes, Rng& rng) const {
  EvalResult out;
  int safe = 0;
  double sum = 0.0;
  for (int ep = 0; ep < episodes; ++ep) {
    Vec x = env.reset_from_init(rng);
    double total = 0.0;
    bool violated = false;
    for (;;) {
      const Vec a = actor_.forward(x);
      const StepResult sr = env.step(a);
      total += sr.reward;
      // Safety per Definition 1: the first X_u entry ends the rollout.
      if (sr.violated) {
        violated = true;
        break;
      }
      if (sr.done) break;
      x = sr.next_state;
    }
    sum += total;
    if (!violated) ++safe;
  }
  out.mean_return = sum / std::max(1, episodes);
  out.safety_rate = static_cast<double>(safe) / std::max(1, episodes);
  return out;
}

ControlLaw control_law_from_actor(const Mlp& actor, double control_bound) {
  const Mlp actor_copy = actor;
  return [actor_copy, control_bound](const Vec& x) {
    Vec a = actor_copy.forward(x);
    return a * control_bound;
  };
}

ControlLaw DdpgAgent::control_law(double control_bound) const {
  return control_law_from_actor(actor_, control_bound);
}


void hash_append(Fnv1a& h, const DdpgConfig& c) {
  hash_append(h, c.actor_hidden);
  hash_append(h, c.critic_hidden);
  hash_append(h, static_cast<int>(c.actor_hidden_activation));
  hash_append(h, c.actor_lr);
  hash_append(h, c.critic_lr);
  hash_append(h, c.actor_weight_decay);
  hash_append(h, c.actor_weight_norm_cap);
  hash_append(h, c.gamma);
  hash_append(h, c.soft_tau);
  hash_append(h, static_cast<std::uint64_t>(c.batch_size));
  hash_append(h, static_cast<std::uint64_t>(c.buffer_capacity));
  hash_append(h, static_cast<std::uint64_t>(c.warmup_steps));
  hash_append(h, c.updates_per_step);
  hash_append(h, c.noise_sigma);
  hash_append(h, c.noise_theta);
  hash_append(h, c.noise_decay_per_episode);
  hash_append(h, c.noise_sigma_min);
}

}  // namespace scs
