// Hard determinism requirement: the parallelized hot paths (scenario
// generation / PAC fit, Monte-Carlo safety, SDP Schur assembly, dense
// matmul) must produce bitwise-identical results at 1 and 4 threads.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "barrier/independent_check.hpp"
#include "barrier/mc_safety.hpp"
#include "math/mat.hpp"
#include "opt/sdp.hpp"
#include "pac/pac_fit.hpp"
#include "systems/benchmarks.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include "test_helpers.hpp"

namespace scs {
namespace {

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { set_parallel_threads(0); }

  /// Run `work` at 1 and at 4 threads; both fingerprints must match bitwise.
  template <typename Work>
  void expect_bitwise_equal(const Work& work) {
    set_parallel_threads(1);
    const std::vector<double> serial = work();
    set_parallel_threads(4);
    const std::vector<double> parallel = work();
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      // EXPECT_EQ on doubles is exact (bitwise up to NaN), which is the
      // whole point: no tolerance.
      EXPECT_EQ(serial[i], parallel[i]) << "index " << i;
    }
  }
};

TEST_F(ParallelDeterminismTest, PacFit) {
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  // Shrunk schedule: the full Table-1 sweep would run minutes; two degrees
  // and two error rates exercise the same parallel sampling path.
  PacSettings settings = bench.pac;
  settings.max_degree = 2;
  settings.eps_list = {0.1, 0.01};
  expect_bitwise_equal([&bench, &settings] {
    const ScalarFn fn = [](const Vec& x) {
      return std::tanh(1.5 * x[0] - 0.4 * x[1]);
    };
    PacFitOptions opts;
    opts.max_samples = 4000;
    Rng rng(21);
    const PacResult pac =
        pac_approximate(fn, bench.ccds.domain, settings, rng, opts);
    std::vector<double> out{pac.model.error, pac.model.eps,
                            static_cast<double>(pac.model.degree)};
    Rng grid(5);
    for (int i = 0; i < 16; ++i) {
      const Vec x(grid.uniform_vector(bench.ccds.num_states, -1.0, 1.0));
      out.push_back(pac.model.poly.evaluate(x));
    }
    for (const auto& row : pac.trace) {
      out.push_back(row.error);
      out.push_back(static_cast<double>(row.samples_used));
    }
    return out;
  });
}

TEST_F(ParallelDeterminismTest, EmpiricalViolationRate) {
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  PacSettings settings = bench.pac;
  settings.max_degree = 1;
  settings.eps_list = {0.1};
  expect_bitwise_equal([&bench, &settings] {
    const ScalarFn fn = [](const Vec& x) { return std::tanh(x[0] - x[1]); };
    PacFitOptions opts;
    opts.max_samples = 2000;
    Rng rng(22);
    const PacResult pac =
        pac_approximate(fn, bench.ccds.domain, settings, rng, opts);
    Rng vrng(23);
    PacModel model = pac.model;
    return std::vector<double>{empirical_violation_rate(
        model, fn, bench.ccds.domain, 3000, vrng)};
  });
}

TEST_F(ParallelDeterminismTest, EstimateSafety) {
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  expect_bitwise_equal([&bench] {
    const ControlLaw law = [&bench](const Vec& x) {
      return Vec{-bench.ccds.control_bound * std::tanh(x[0] + 0.5 * x[1])};
    };
    McSafetyConfig cfg;
    cfg.rollouts = 300;
    cfg.dt = bench.rl.dt;
    cfg.max_steps = 200;
    Rng rng(24);
    const McSafetyResult mc = estimate_safety(bench.ccds, law, cfg, rng);
    return std::vector<double>{static_cast<double>(mc.violations),
                               mc.violation_rate, mc.violation_upper_bound};
  });
}

TEST_F(ParallelDeterminismTest, SdpSolve) {
  // Random sparse constraints on one Gram-sized block (Schur assembly is
  // the parallel path under test).
  SdpProblem p;
  const std::size_t n = 24;
  Rng build(25);
  p.block_dims = {n};
  p.block_obj_weight = {1.0};
  for (std::size_t i = 0; i < 2 * n; ++i) {
    SdpConstraint c;
    const std::size_t r = build.index(n);
    const std::size_t cc = r + build.index(n - r);
    const double v = build.uniform(-1.0, 1.0);
    c.entries.push_back({0, r, cc, v});
    c.rhs = (r == cc) ? v : 0.0;
    p.constraints.push_back(c);
  }
  expect_bitwise_equal([&p] {
    const SdpSolution res = solve_sdp(p);
    std::vector<double> out{res.primal_objective, res.duality_gap,
                            res.primal_infeasibility};
    for (const Mat& x : res.x)
      for (std::size_t i = 0; i < x.rows(); ++i)
        for (std::size_t j = 0; j < x.cols(); ++j) out.push_back(x(i, j));
    return out;
  });
}

TEST_F(ParallelDeterminismTest, MatmulKernels) {
  const std::size_t n = 97;  // odd size exercises partial tiles
  Rng rng(26);
  Mat a(n, n), b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = (rng.uniform01() < 0.2) ? 0.0 : rng.normal();
      b(i, j) = rng.normal();
    }
  expect_bitwise_equal([&a, &b] {
    std::vector<double> out;
    for (const Mat& m : {matmul(a, b), matmul_at_b(a, b), matmul_a_bt(a, b)})
      for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j) out.push_back(m(i, j));
    return out;
  });
}

TEST_F(ParallelDeterminismTest, ValidateBarrier) {
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  // A hand-made quadratic barrier over the pendulum state; the verdict is
  // irrelevant -- only thread-count invariance of the report matters.
  Polynomial barrier(bench.ccds.num_states);
  {
    Polynomial x0 = Polynomial::variable(bench.ccds.num_states, 0);
    Polynomial x1 = Polynomial::variable(bench.ccds.num_states, 1);
    barrier = Polynomial::constant(bench.ccds.num_states, 1.0) - x0 * x0 -
              x1 * x1;
  }
  std::vector<Polynomial> controller;
  {
    Polynomial x0 = Polynomial::variable(bench.ccds.num_states, 0);
    Polynomial x1 = Polynomial::variable(bench.ccds.num_states, 1);
    controller.push_back(-1.0 * x0 - 0.5 * x1);
  }
  expect_bitwise_equal([&] {
    ValidationConfig cfg;
    cfg.samples_per_set = 600;
    cfg.simulation_rollouts = 10;
    cfg.simulation_steps = 200;
    Rng rng(27);
    const ValidationReport report = validate_barrier(
        bench.ccds, controller, barrier,
        Polynomial::constant(bench.ccds.num_states, -1.0), 1e-3, cfg, rng);
    std::vector<double> out;
    for (const ConditionCheck& c : report.conditions) {
      out.push_back(c.worst);
      out.push_back(c.threshold);
      out.insert(out.end(), c.witness.begin(), c.witness.end());
    }
    out.push_back(static_cast<double>(report.unsafe_rollouts));
    out.push_back(report.passed ? 1.0 : 0.0);
    return out;
  });
}

}  // namespace
}  // namespace scs
