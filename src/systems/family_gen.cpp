#include "systems/family_gen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "math/mat.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace scs {

namespace {

constexpr double kTwoPi = 6.28318530717958647692;

/// Block-diagonal D realizing the drawn eigenstructure: one 2x2
/// rotation-scaled block [[a, -b], [b, a]] per complex pair (eigenvalues
/// a +- bi, modulus sqrt(a^2 + b^2)) and a single real entry when n is odd.
/// All moduli are rescaled so the largest equals `radius` exactly (one
/// multiply per entry -- conjugation by an orthogonal Q below preserves the
/// spectrum, so the realized spectral radius *is* the prescribed one).
Mat draw_eigen_blocks(std::size_t n, double radius, double unstable_fraction,
                      Rng& rng, bool* locally_unstable) {
  const std::size_t pairs = n / 2;
  const bool has_real = (n % 2) != 0;
  std::vector<double> re, im, modulus;
  double max_modulus = 0.0;
  *locally_unstable = false;
  for (std::size_t k = 0; k < pairs + (has_real ? 1 : 0); ++k) {
    const double r = rng.uniform(0.5, 1.0);
    const bool unstable = rng.uniform01() < unstable_fraction;
    // Keep unstable real parts mild (the RL stage has to be able to tame
    // them within the actuator bound) and stable ones well damped.
    const double re_frac =
        unstable ? rng.uniform(0.05, 0.5) : -rng.uniform(0.3, 1.0);
    const double a = re_frac * r;
    const bool is_real_slot = has_real && k == pairs;
    const double b =
        is_real_slot ? 0.0 : std::sqrt(std::max(r * r - a * a, 0.0));
    re.push_back(is_real_slot ? (unstable ? r : -r) : a);
    im.push_back(b);
    modulus.push_back(r);
    max_modulus = std::max(max_modulus, r);
    if (re.back() > 0.0) *locally_unstable = true;
  }
  const double scale = radius / max_modulus;
  Mat d(n, n, 0.0);
  for (std::size_t k = 0; k < pairs; ++k) {
    const double a = re[k] * scale, b = im[k] * scale;
    d(2 * k, 2 * k) = a;
    d(2 * k, 2 * k + 1) = -b;
    d(2 * k + 1, 2 * k) = b;
    d(2 * k + 1, 2 * k + 1) = a;
  }
  if (has_real) d(n - 1, n - 1) = re.back() * scale;
  return d;
}

/// Random orthogonal Q as a product of Givens rotations over every (i, j)
/// plane. Explicit rotations (rather than QR of a Gaussian matrix) keep the
/// construction free of library sign conventions: the draw sequence alone
/// pins Q bit for bit.
Mat draw_rotation(std::size_t n, Rng& rng) {
  Mat q = Mat::identity(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double theta = rng.uniform(0.0, kTwoPi);
      const double c = std::cos(theta), s = std::sin(theta);
      for (std::size_t col = 0; col < n; ++col) {
        const double qi = q(i, col), qj = q(j, col);
        q(i, col) = c * qi - s * qj;
        q(j, col) = s * qi + c * qj;
      }
    }
  }
  return q;
}

/// A random degree-d monomial in the n state variables (as a polynomial
/// over `total` = n + m variables), built as a product of d variable draws.
Polynomial draw_state_monomial(std::size_t total, std::size_t n, int degree,
                               Rng& rng) {
  Polynomial p = Polynomial::constant(total, 1.0);
  for (int d = 0; d < degree; ++d)
    p = p * Polynomial::variable(total, rng.index(n));
  return p;
}

GeneratedSystem generate_with(const FamilyConfig& config, std::size_t index,
                              Rng rng) {
  SCS_REQUIRE(!config.state_dims.empty(),
              "generate_system: state_dims must be non-empty");
  SCS_REQUIRE(config.num_controls >= 1,
              "generate_system: need at least one control input");
  SCS_REQUIRE(config.min_degree >= 1 &&
                  config.max_degree >= config.min_degree,
              "generate_system: degree range must satisfy 1 <= min <= max");
  SCS_REQUIRE(config.min_spectral_radius > 0.0 &&
                  config.max_spectral_radius >= config.min_spectral_radius,
              "generate_system: spectral-radius range must be positive");

  GeneratedSystem out;
  FamilyDescriptor& desc = out.descriptor;
  desc.seed = config.seed;
  desc.index = index;

  // Draw order is part of the format: n, degree, spectral radius, eigen
  // blocks, rotation, geometry, control structure, nonlinear terms. Append
  // new knobs at the end or bump the family seed convention.
  const std::size_t n = config.state_dims[rng.index(config.state_dims.size())];
  const std::size_t m = config.num_controls;
  desc.num_states = n;
  desc.num_controls = m;
  desc.degree = rng.uniform_int(config.min_degree, config.max_degree);
  desc.spectral_radius =
      rng.uniform(config.min_spectral_radius, config.max_spectral_radius);

  const Mat d = draw_eigen_blocks(n, desc.spectral_radius,
                                  config.unstable_fraction, rng,
                                  &desc.locally_unstable);
  const Mat q = draw_rotation(n, rng);
  const Mat a = matmul_a_bt(matmul(q, d), q);  // A = Q D Q^T

  // Geometry.
  desc.theta_radius = rng.uniform(config.theta_radius_lo,
                                  config.theta_radius_hi);
  const double gap = rng.uniform(config.shell_gap_lo, config.shell_gap_hi);
  desc.obstacle = rng.uniform01() < config.obstacle_fraction;
  Benchmark& bench = out.benchmark;
  bench.id = BenchmarkId::kGenerated;
  bench.name = family_system_name(config.seed, index);
  bench.ccds.name = bench.name;
  bench.ccds.num_states = n;
  bench.ccds.num_controls = m;
  if (desc.obstacle) {
    // C9-style obstacle: a small unsafe ball offset from the origin along a
    // random direction, with the initial ball at the origin.
    desc.unsafe_radius = rng.uniform(0.25, 0.45) * desc.theta_radius + 0.15;
    const double dist = desc.theta_radius + gap;
    Vec center(n, 0.0);
    {
      Vec dir(n, 0.0);
      double norm = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        dir[i] = rng.normal();
        norm += dir[i] * dir[i];
      }
      norm = std::sqrt(std::max(norm, 1e-12));
      for (std::size_t i = 0; i < n; ++i) center[i] = dir[i] / norm * dist;
    }
    desc.box_half_width = dist + desc.unsafe_radius + config.box_margin;
    const Box psi = Box::centered(n, desc.box_half_width);
    bench.ccds.init_set =
        SemialgebraicSet::ball(Vec(n, 0.0), desc.theta_radius);
    bench.ccds.domain = SemialgebraicSet::from_box(psi);
    bench.ccds.unsafe_set =
        SemialgebraicSet::ball(center, desc.unsafe_radius);
  } else {
    desc.unsafe_radius = desc.theta_radius + gap;
    desc.box_half_width = desc.unsafe_radius + config.box_margin;
    const Box psi = Box::centered(n, desc.box_half_width);
    bench.ccds.init_set =
        SemialgebraicSet::ball(Vec(n, 0.0), desc.theta_radius);
    bench.ccds.domain = SemialgebraicSet::from_box(psi);
    bench.ccds.unsafe_set =
        SemialgebraicSet::outside_ball(Vec(n, 0.0), desc.unsafe_radius, psi);
  }

  // Field: linear part A x, control entries, then nonlinear terms.
  const std::size_t total = n + m;
  std::vector<Polynomial> field(n, Polynomial(total));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (a(i, j) != 0.0)
        field[i] = field[i] + Polynomial::variable(total, j) * a(i, j);

  // Each control channel enters one state row (distinct rows while they
  // last) with a gain near 1 so the actuator bound keeps its meaning.
  std::vector<std::size_t> rows(n);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  for (std::size_t r = n; r > 1; --r)
    std::swap(rows[r - 1], rows[rng.index(r)]);
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t target = rows[j % n];
    const double gain = rng.uniform(0.8, 1.2);
    field[target] =
        field[target] + Polynomial::variable(total, n + j) * gain;
  }

  // Nonlinear terms, coefficients scaled by 1/box^(d-1) so their magnitude
  // over Psi stays comparable to the linear part. One term of the drawn
  // degree is forced so the realized d_f equals the descriptor's.
  if (desc.degree >= 2) {
    const double box = std::max(desc.box_half_width, 1e-6);
    const auto draw_coeff = [&](int deg) {
      return rng.normal(0.0, config.nonlinear_scale) * desc.spectral_radius /
             std::pow(box, deg - 1);
    };
    {
      const std::size_t comp = rng.index(n);
      const double c = draw_coeff(desc.degree);
      field[comp] = field[comp] +
                    draw_state_monomial(total, n, desc.degree, rng) * c;
    }
    const std::size_t extra = static_cast<std::size_t>(
        std::llround(config.nonlinear_density * static_cast<double>(n)));
    for (std::size_t t = 0; t < extra; ++t) {
      const std::size_t comp = rng.index(n);
      const int deg = rng.uniform_int(2, desc.degree);
      const double c = draw_coeff(deg);
      field[comp] =
          field[comp] + draw_state_monomial(total, n, deg, rng) * c;
    }
  }
  bench.ccds.open_field = std::move(field);
  bench.ccds.control_bound = config.control_bound;

  bench.hidden_layers = config.hidden_layers;
  bench.pac.max_degree = config.pac_max_degree;
  bench.rl.episodes = config.rl_episodes;
  bench.rl.steps_per_episode = 150;
  bench.rl.dt = 0.02;

  bench.ccds.validate();
  return out;
}

}  // namespace

std::string family_system_name(std::uint64_t seed, std::size_t index) {
  return "F" + std::to_string(seed) + "-" + std::to_string(index);
}

GeneratedSystem generate_system(const FamilyConfig& config,
                                std::size_t index) {
  Rng root(config.seed);
  std::vector<Rng> streams = root.fork_streams(index + 1);
  return generate_with(config, index, streams[index]);
}

std::vector<GeneratedSystem> generate_family(const FamilyConfig& config,
                                             std::size_t count) {
  Rng root(config.seed);
  // Streams are forked serially before the fan-out, so element i is
  // bitwise-identical to generate_system(config, i) at any thread count.
  std::vector<Rng> streams = root.fork_streams(count);
  std::vector<GeneratedSystem> out(count);
  parallel_for(count, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      out[i] = generate_with(config, i, streams[i]);
  });
  return out;
}

std::uint64_t generated_system_digest(const GeneratedSystem& sys) {
  Fnv1a h;
  hash_append(h, sys.benchmark);
  hash_append(h, sys.descriptor);
  return h.digest();
}

void hash_append(Fnv1a& h, const FamilyDescriptor& d) {
  hash_append(h, d.seed);
  hash_append(h, static_cast<std::uint64_t>(d.index));
  hash_append(h, static_cast<std::uint64_t>(d.num_states));
  hash_append(h, static_cast<std::uint64_t>(d.num_controls));
  hash_append(h, d.degree);
  hash_append(h, d.spectral_radius);
  hash_append(h, d.locally_unstable);
  hash_append(h, d.obstacle);
  hash_append(h, d.theta_radius);
  hash_append(h, d.unsafe_radius);
  hash_append(h, d.box_half_width);
}

}  // namespace scs
