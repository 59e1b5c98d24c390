#include "rl/ddpg.hpp"

#include <algorithm>
#include <cmath>

#include "math/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/hash.hpp"

namespace scs {

namespace {

// Hyperparameters (Lillicrap et al. unless noted). hash_append below folds
// each into the RL stage key, so changing one re-keys that stage.
const std::vector<std::size_t> kCriticHidden = {64, 64};
/// Hidden activation of the actor. The paper's Table 2 uses ReLU; tanh
/// hidden layers give a C-infinity policy surface, which markedly lowers
/// Algorithm 1's minimax error for the same control performance.
constexpr Activation kActorHiddenActivation = Activation::kTanh;
constexpr double kActorLr = 2e-4;
constexpr double kCriticLr = 1e-3;
/// L2 weight decay on the actor: biases the policy toward smooth, small-
/// weight functions -- the kind a low-degree polynomial can PAC-model.
constexpr double kActorWeightDecay = 1e-4;
/// Max-norm constraint on each actor layer's Frobenius norm. Bounds the
/// policy's global Lipschitz constant by the product of layer norms, which
/// is what keeps Algorithm 1's minimax error small: a single sharp crease
/// anywhere in Psi would dominate e.
constexpr double kActorWeightNormCap = 0.9;
constexpr double kGamma = 0.99;     // reward decay factor
constexpr double kSoftTau = 0.005;  // target-network tracking rate
constexpr std::size_t kBatchSize = 64;
constexpr std::size_t kBufferCapacity = 100000;
// Exploration: Ornstein-Uhlenbeck noise whose sigma decays per episode.
constexpr double kNoiseSigma = 0.25;
constexpr double kNoiseTheta = 0.15;
constexpr double kNoiseDecayPerEpisode = 0.995;
constexpr double kNoiseSigmaMin = 0.02;

static_assert(kGamma > 0.0 && kGamma < 1.0, "gamma must be in (0, 1)");
static_assert(kSoftTau > 0.0 && kSoftTau <= 1.0, "soft_tau must be in (0, 1]");
static_assert(kBatchSize > 0, "an empty minibatch divides by zero");

}  // namespace

DdpgAgent::DdpgAgent(std::size_t state_dim, std::size_t action_dim,
                     const DdpgConfig& config, Rng& rng)
    : config_(config),
      state_dim_(state_dim),
      action_dim_(action_dim),
      actor_(state_dim, config.actor_hidden, action_dim,
             kActorHiddenActivation, Activation::kTanh, rng),
      critic_(state_dim + action_dim, kCriticHidden, 1, Activation::kRelu,
              Activation::kIdentity, rng),
      actor_target_(actor_),
      critic_target_(critic_),
      actor_opt_(actor_.parameter_count(), kActorLr),
      critic_opt_(critic_.parameter_count(), kCriticLr),
      buffer_(kBufferCapacity),
      noise_(action_dim, kNoiseTheta, kNoiseSigma) {
  SCS_REQUIRE(state_dim > 0 && action_dim > 0, "DdpgAgent: bad dimensions");
  // Small final-layer initialization (Lillicrap et al.): keeps the tanh
  // actor out of saturation early, which otherwise collapses the policy to
  // a constant +-1 for hundreds of episodes.
  actor_.scale_output_layer(0.01);
  critic_.scale_output_layer(0.1);
  actor_target_ = actor_;
  critic_target_ = critic_;
  actor_batch_ = actor_.make_batch(kBatchSize);
  critic_batch_ = critic_.make_batch(kBatchSize);
  actor_grad_ = Vec(actor_.parameter_count());
  critic_grad_ = Vec(critic_.parameter_count());
  td_target_ = Vec(kBatchSize);
  critic_dx_ = Mat(state_dim + action_dim, kBatchSize);
}

Vec DdpgAgent::act(const Vec& state) const { return actor_.forward(state); }

void DdpgAgent::update_networks(Rng& rng) {
  const std::size_t n = kBatchSize;
  if (buffer_.size() < n) return;
  if (metrics_enabled()) {
    static Counter& updates = MetricsRegistry::instance().counter("rl.updates");
    updates.add(1);
  }
  const auto batch = buffer_.sample(n, rng);
  const double inv_n = 1.0 / static_cast<double>(n);
  // Column b of every workspace is transition b; the critic's input stacks
  // the state rows over the action rows.
  Mat& actor_x = actor_batch_.x;
  Mat& critic_x = critic_batch_.x;
  const Mat& actions = actor_batch_.y();
  const Mat& q = critic_batch_.y();

  // ---- Critic update: minimize (5), the TD error against the targets. The
  // targets run on every row; a terminal row's value is never read.
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t j = 0; j < state_dim_; ++j)
      critic_x(j, b) = actor_x(j, b) = batch[b]->next_state[j];
  actor_target_.forward(actor_batch_);
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t i = 0; i < action_dim_; ++i)
      critic_x(state_dim_ + i, b) = actions(i, b);
  critic_target_.forward(critic_batch_);
  for (std::size_t b = 0; b < n; ++b) {
    double y = batch[b]->reward;
    if (!batch[b]->done) y += kGamma * q(0, b);
    td_target_[b] = y;
  }
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t j = 0; j < state_dim_; ++j)
      critic_x(j, b) = batch[b]->state[j];
    for (std::size_t i = 0; i < action_dim_; ++i)
      critic_x(state_dim_ + i, b) = batch[b]->action[i];
  }
  critic_.forward(critic_batch_);
  // d/dq of (y - q)^2 / N = -2 (y - q) / N.
  for (std::size_t b = 0; b < n; ++b)
    critic_batch_.dy(0, b) = -2.0 * (td_target_[b] - q(0, b)) * inv_n;
  critic_grad_.fill(0.0);
  critic_.backward(critic_batch_, &critic_grad_, nullptr);
  critic_opt_.step(critic_, critic_grad_);

  // ---- Actor update: ascend Q(x, actor(x)), i.e. minimize (6). The critic
  // keeps its state rows and takes the actor's actions.
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t j = 0; j < state_dim_; ++j)
      actor_x(j, b) = batch[b]->state[j];
  actor_.forward(actor_batch_);
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t i = 0; i < action_dim_; ++i)
      critic_x(state_dim_ + i, b) = actions(i, b);
  critic_.forward(critic_batch_);
  // dJ/dq = -1/N  (J = -mean Q). Only the critic's input gradient is needed.
  for (std::size_t b = 0; b < n; ++b) critic_batch_.dy(0, b) = -inv_n;
  critic_.backward(critic_batch_, nullptr, &critic_dx_);
  // Slice dJ/da from the critic's input gradient, then apply inverting
  // gradients (Hausknecht & Stone): attenuate the component that pushes an
  // action toward its bound proportionally to the remaining headroom, so
  // the tanh actor never drives itself into saturation.
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t i = 0; i < action_dim_; ++i) {
      double g = critic_dx_(state_dim_ + i, b);
      const double ai = actions(i, b);
      // The parameter step moves a along -g.
      g *= (g < 0.0) ? 0.5 * (1.0 - ai) : 0.5 * (1.0 + ai);
      actor_batch_.dy(i, b) = g;
    }
  }
  actor_grad_.fill(0.0);
  actor_.backward(actor_batch_, &actor_grad_, nullptr);
  std::size_t offset = 0;
  actor_.for_each_block([&](const double* params, std::size_t len) {
    simd::axpy(actor_grad_.begin() + offset, kActorWeightDecay, params, len);
    offset += len;
  });
  actor_opt_.step(actor_, actor_grad_);
  // Project each layer back into the Frobenius ball (max-norm constraint).
  for (std::size_t k = 0; k < actor_.layer_count(); ++k) {
    Mat& w = actor_.mutable_weight(k);
    const double norm = w.frobenius_norm();
    if (norm > kActorWeightNormCap) w *= kActorWeightNormCap / norm;
  }

  // ---- Soft target tracking.
  actor_target_.soft_update_from(actor_, kSoftTau);
  critic_target_.soft_update_from(critic_, kSoftTau);
}

TrainResult DdpgAgent::train(ControlEnv& env, int episodes, Rng& rng) {
  SCS_REQUIRE(env.state_dim() == state_dim_ && env.action_dim() == action_dim_,
              "DdpgAgent::train: environment dimensions mismatch");
  TrainResult result;
  std::size_t global_step = 0;
  double sigma = kNoiseSigma;

  for (int ep = 0; ep < episodes; ++ep) {
    TraceSpan episode_span("rl.episode");
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

      if (global_step >= config_.warmup_steps) update_networks(rng);

      if (sr.done) break;
      x = sr.next_state;
    }
    result.episodes.push_back(stats);
    sigma = std::max(kNoiseSigmaMin, sigma * kNoiseDecayPerEpisode);
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


// The constants keep their places and types from when they were config
// fields, so stores written then still serve this build.
void hash_append(Fnv1a& h, const DdpgConfig& c) {
  hash_append(h, c.actor_hidden);
  hash_append(h, kCriticHidden);
  hash_append(h, static_cast<int>(kActorHiddenActivation));
  hash_append(h, kActorLr);
  hash_append(h, kCriticLr);
  hash_append(h, kActorWeightDecay);
  hash_append(h, kActorWeightNormCap);
  hash_append(h, kGamma);
  hash_append(h, kSoftTau);
  hash_append(h, static_cast<std::uint64_t>(kBatchSize));
  hash_append(h, static_cast<std::uint64_t>(kBufferCapacity));
  hash_append(h, static_cast<std::uint64_t>(c.warmup_steps));
  hash_append(h, 1);  // updates per environment step
  hash_append(h, kNoiseSigma);
  hash_append(h, kNoiseTheta);
  hash_append(h, kNoiseDecayPerEpisode);
  hash_append(h, kNoiseSigmaMin);
}

}  // namespace scs
