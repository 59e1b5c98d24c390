#include "baseline/nncontroller.hpp"

#include <algorithm>
#include <cmath>

#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace scs {

namespace {

const std::vector<std::size_t> kControllerHidden = {30};
const std::vector<std::size_t> kBarrierHidden = {30};
constexpr std::size_t kBatchPerSet = 32;
constexpr double kLr = 1e-3;
// Condition-loss margins.
constexpr double kMarginInit = 0.1;    // B >= margin on Theta
constexpr double kMarginUnsafe = 0.1;  // B <= -margin on X_u
constexpr double kMarginLie = 0.02;    // dB/dt >= margin near {B ~ 0}
constexpr double kLieBand = 0.3;       // Gaussian window width on |B|
constexpr double kLieDt = 0.02;        // finite-difference horizon for dB/dt
// Verification.
constexpr double kGridCell = 0.05;      // target grid spacing per axis
constexpr double kVerifyMargin = 0.0;   // extra slack demanded at grid points
constexpr std::uint64_t kSeed = 11;

/// d f_i / d u_k of the open-loop field, evaluated at (x, u).
Mat control_jacobian(const Ccds& system, const Vec& x, const Vec& u) {
  const std::size_t n = system.num_states;
  const std::size_t m = system.num_controls;
  Mat jac(n, m);
  const Vec z = concat(x, u);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < m; ++k)
      jac(i, k) = system.open_field[i].derivative(n + k).evaluate(z);
  return jac;
}

struct Nets {
  Mlp controller;
  Mlp barrier;
};

/// One-row training passes; condition (iii) keeps two barrier passes alive
/// at once.
struct Passes {
  explicit Passes(const Nets& nets)
      : controller(nets.controller.make_batch(1)),
        barrier(nets.barrier.make_batch(1)),
        barrier_next(nets.barrier.make_batch(1)),
        barrier_next_dx(nets.barrier.input_dim(), 1) {}

  Mlp::Batch controller, barrier, barrier_next;
  Mat barrier_next_dx;  // dB/dx at the stepped point
};

/// Runs `x` through `net` as a one-row pass and returns the output column.
Vec forward_row(const Mlp& net, Mlp::Batch& pass, const Vec& x) {
  for (std::size_t j = 0; j < x.size(); ++j) pass.x(j, 0) = x[j];
  net.forward(pass);
  Vec y(net.output_dim());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = pass.y()(i, 0);
  return y;
}

/// One training step over fresh minibatches of the three condition losses.
/// Returns the total loss (for monitoring).
double train_step(const Ccds& system, Nets& nets, Passes& passes,
                  Adam& ctrl_opt, Adam& barrier_opt, Rng& rng) {
  Vec ctrl_grad(nets.controller.parameter_count(), 0.0);
  Vec barrier_grad(nets.barrier.parameter_count(), 0.0);
  double loss = 0.0;
  const double inv_b = 1.0 / static_cast<double>(kBatchPerSet);

  // ---- Condition (i): B(x) >= margin on Theta.
  for (std::size_t s = 0; s < kBatchPerSet; ++s) {
    const Vec x = system.init_set.sample(rng);
    const double b = forward_row(nets.barrier, passes.barrier, x)[0];
    const double violation = kMarginInit - b;
    if (violation > 0.0) {
      loss += violation * inv_b;
      passes.barrier.dy(0, 0) = -inv_b;  // d(violation)/db = -1
      nets.barrier.backward(passes.barrier, &barrier_grad, nullptr);
    }
  }

  // ---- Condition (ii): B(x) <= -margin on X_u.
  for (std::size_t s = 0; s < kBatchPerSet; ++s) {
    const Vec x = system.unsafe_set.sample(rng);
    const double b = forward_row(nets.barrier, passes.barrier, x)[0];
    const double violation = b + kMarginUnsafe;
    if (violation > 0.0) {
      loss += violation * inv_b;
      passes.barrier.dy(0, 0) = inv_b;
      nets.barrier.backward(passes.barrier, &barrier_grad, nullptr);
    }
  }

  // ---- Condition (iii): dB/dt >= margin near the zero level set,
  // with dB/dt ~ (B(x + dt f(x,u)) - B(x)) / dt and a Gaussian window
  // w = exp(-(B/band)^2) concentrating the constraint near {B ~ 0}.
  for (std::size_t s = 0; s < kBatchPerSet; ++s) {
    const Vec x = system.domain.sample(rng);
    const Vec u = forward_row(nets.controller, passes.controller, x);
    Vec u_phys = u;
    for (auto& v : u_phys) v *= system.control_bound;

    const Vec fx = system.eval_open(x, u_phys);
    Vec x2 = x;
    x2.axpy(kLieDt, fx);

    const double b1 = forward_row(nets.barrier, passes.barrier, x)[0];
    const double b2 = forward_row(nets.barrier, passes.barrier_next, x2)[0];
    const double dbdt = (b2 - b1) / kLieDt;

    const double window = std::exp(-(b1 / kLieBand) * (b1 / kLieBand));
    const double violation = kMarginLie - dbdt;
    if (violation > 0.0 && window > 1e-3) {
      const double w = window * inv_b;
      loss += violation * w;
      // d(violation)/d(b2) = -1/dt ; d/d(b1) = +1/dt (window treated as
      // a constant weight -- a standard stop-gradient on the gate).
      passes.barrier_next.dy(0, 0) = -w / kLieDt;
      nets.barrier.backward(passes.barrier_next, &barrier_grad,
                            &passes.barrier_next_dx);
      const Mat& db2_dx2 = passes.barrier_next_dx;
      passes.barrier.dy(0, 0) = w / kLieDt;
      nets.barrier.backward(passes.barrier, &barrier_grad, nullptr);
      // Controller chain: x2 depends on u through dt * f(x, u).
      const Mat jac = control_jacobian(system, x, u_phys);
      for (std::size_t k = 0; k < u.size(); ++k) {
        double acc = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i)
          acc += db2_dx2(i, 0) * kLieDt * jac(i, k);
        passes.controller.dy(k, 0) = acc * system.control_bound;
      }
      nets.controller.backward(passes.controller, &ctrl_grad, nullptr);
    }
  }

  ctrl_opt.step(nets.controller, ctrl_grad);
  barrier_opt.step(nets.barrier, barrier_grad);
  return loss;
}

}  // namespace

NnControllerResult run_nncontroller(const Ccds& system,
                                    const NnControllerConfig& config) {
  NnControllerResult result;
  Stopwatch total;
  Rng rng(kSeed);

  // ---- Stage 1: joint supervised training of controller + barrier.
  Stopwatch train_sw;
  Nets nets{
      Mlp(system.num_states, kControllerHidden, system.num_controls,
          Activation::kRelu, Activation::kTanh, rng),
      Mlp(system.num_states, kBarrierHidden, 1, Activation::kTanh,
          Activation::kIdentity, rng),
  };
  result.barrier_structure = nets.barrier.structure_string();
  Adam ctrl_opt(nets.controller.parameter_count(), kLr);
  Adam barrier_opt(nets.barrier.parameter_count(), kLr);
  Passes passes(nets);

  double recent_loss = 0.0;
  for (int it = 0; it < config.train_iterations; ++it) {
    const double l =
        train_step(system, nets, passes, ctrl_opt, barrier_opt, rng);
    recent_loss = 0.95 * recent_loss + 0.05 * l;
    if ((it + 1) % 1000 == 0)
      log_debug("nncontroller: iter ", it + 1, " smoothed loss ", recent_loss);
  }
  result.train_seconds = train_sw.seconds();

  // ---- Stage 2: exhaustive grid verification over Psi.
  Stopwatch verify_sw;
  const Box& box = system.domain.sampling_box();
  const std::size_t n = box.dim();
  // Grid resolution from the requested cell size.
  std::uint64_t total_points = 1;
  std::vector<std::size_t> per_dim(n);
  bool too_large = false;
  for (std::size_t i = 0; i < n; ++i) {
    const double width = box.hi[i] - box.lo[i];
    per_dim[i] = std::max<std::size_t>(
        2, static_cast<std::size_t>(std::ceil(width / kGridCell)) + 1);
    if (total_points > (std::uint64_t{1} << 62) / per_dim[i]) {
      too_large = true;
      break;
    }
    total_points *= per_dim[i];
  }
  result.grid_points = too_large ? 0 : total_points;

  // Cost model: ~2 network evaluations per grid point. Refuse grids whose
  // projected cost exceeds the budget -- this is the "x" regime of Table 2.
  const double est_seconds = static_cast<double>(total_points) * 2.5e-6;
  if (too_large || est_seconds > config.verify_budget_seconds) {
    result.verified = false;
    result.verify_seconds = verify_sw.seconds();
    result.total_seconds = total.seconds();
    result.reason = "verification grid of " +
                    std::to_string(total_points) +
                    " points exceeds the time budget (exponential in n)";
    return result;
  }

  // Walk the grid with an odometer.
  std::vector<std::size_t> idx(n, 0);
  bool ok = true;
  std::string violation;
  for (std::uint64_t count = 0; count < total_points && ok; ++count) {
    Vec x(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(idx[i]) /
                       static_cast<double>(per_dim[i] - 1);
      x[i] = box.lo[i] + t * (box.hi[i] - box.lo[i]);
    }
    const double b = nets.barrier.forward(x)[0];
    if (system.init_set.contains(x) && b < kVerifyMargin) {
      ok = false;
      violation = "B < 0 inside Theta";
    } else if (system.unsafe_set.contains(x) && b > -kVerifyMargin) {
      ok = false;
      violation = "B >= 0 inside X_u";
    } else if (std::fabs(b) <= 0.5 * kMarginLie + 0.02) {
      // Near the level set: check the discrete Lie condition.
      Vec u = nets.controller.forward(x);
      for (auto& v : u) v *= system.control_bound;
      const Vec fx = system.eval_open(x, u);
      Vec x2 = x;
      x2.axpy(kLieDt, fx);
      const double dbdt = (nets.barrier.forward(x2)[0] - b) / kLieDt;
      if (dbdt <= kVerifyMargin) {
        ok = false;
        violation = "Lie condition fails on the level set";
      }
    }
    if (verify_sw.seconds() > config.verify_budget_seconds) {
      result.verify_seconds = verify_sw.seconds();
      result.total_seconds = total.seconds();
      result.reason = "verification timed out";
      return result;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (++idx[i] < per_dim[i]) break;
      idx[i] = 0;
    }
  }

  result.verified = ok;
  result.success = ok;
  result.verify_seconds = verify_sw.seconds();
  result.total_seconds = total.seconds();
  if (!ok) result.reason = "counterexample on verification grid: " + violation;
  return result;
}

}  // namespace scs
