// Fault-injection suite: with the deterministic FaultInjector armed, every
// sabotaged computation must either recover through the robustness layer or
// surface a structured status -- never crash, never return a silent wrong
// VERIFIED verdict.
#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.hpp"
#include "math/robust_solve.hpp"
#include "opt/minimax_fit.hpp"
#include "opt/sdp.hpp"
#include "pac/pac_fit.hpp"
#include "util/fault_injector.hpp"
#include "util/thread_pool.hpp"

namespace scs {
namespace {

/// Every test disarms on exit so later suites in this binary run clean.
class FaultInjection : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::instance().disarm(); }

  static Mat spd_matrix(std::size_t n, double diag) {
    Mat a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      a(i, i) = diag;
      if (i + 1 < n) {
        a(i, i + 1) = -1.0;
        a(i + 1, i) = -1.0;
      }
    }
    return a;
  }
};

TEST_F(FaultInjection, DisarmedInjectorIsInert) {
  FaultInjector& fi = FaultInjector::instance();
  // The binary may have been launched with SCS_FAULT_SEED set; this test is
  // about the disarmed state, so disarm explicitly first.
  fi.disarm();
  ASSERT_FALSE(fi.enabled());
  EXPECT_EQ(fi.perturb_pivot(FaultSite::kCholeskyPivot, 2.5), 2.5);
  EXPECT_EQ(fi.corrupt(FaultSite::kNanBoundary, 1.25), 1.25);
  EXPECT_FALSE(fi.should_fire(FaultSite::kSdpStall));
}

TEST_F(FaultInjection, CholeskyRetrySucceedsUnderPivotSabotage) {
  FaultInjector& fi = FaultInjector::instance();
  fi.arm(/*seed=*/42, /*rate=*/1.0, /*max_fires=*/2);
  fi.arm_site(FaultSite::kSdpStall, false);
  fi.arm_site(FaultSite::kNanBoundary, false);

  // Well-conditioned SPD system: the sabotaged pivot kills the first
  // factorization attempts; the regularization ladder must recover once the
  // transient-fault budget is spent.
  const Mat a = spd_matrix(6, 4.0);
  Vec b(6);
  for (std::size_t i = 0; i < 6; ++i) b[i] = 1.0 + static_cast<double>(i);
  const LinearSolveReport report = robust_solve_spd(a, b);
  ASSERT_TRUE(report.ok()) << to_string(report.status);
  EXPECT_GT(fi.fires(FaultSite::kCholeskyPivot), 0u);
  EXPECT_GT(report.factor_attempts, 1);
  EXPECT_LT(report.residual_norm, 1e-8);
  // Cross-check against the true solution (clean solve after disarm).
  fi.disarm();
  const LinearSolveReport clean = robust_solve_spd(a, b);
  ASSERT_TRUE(clean.ok());
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_NEAR(report.x[i], clean.x[i], 1e-6);
}

TEST_F(FaultInjection, NearSingularSpdStillRecovers) {
  FaultInjector& fi = FaultInjector::instance();
  fi.arm(/*seed=*/7, /*rate=*/1.0, /*max_fires=*/1);
  fi.arm_site(FaultSite::kSdpStall, false);
  fi.arm_site(FaultSite::kNanBoundary, false);

  // Nearly rank-deficient SPD matrix (tiny eigenvalue) + a sabotaged pivot:
  // the double-trouble case the regularization ladder exists for.
  Mat a = spd_matrix(5, 2.0);
  a(4, 4) = 1e-15;
  a(3, 4) = 0.0;
  a(4, 3) = 0.0;
  Vec b(5, 1.0);
  const LinearSolveReport report = robust_solve_spd(a, b);
  ASSERT_TRUE(report.ok()) << to_string(report.status);
  EXPECT_TRUE(std::isfinite(report.x.max_abs()));
}

TEST_F(FaultInjection, SdpReportsStalledNotGarbage) {
  FaultInjector& fi = FaultInjector::instance();
  fi.arm(/*seed=*/5, /*rate=*/1.0, /*max_fires=*/100000);
  fi.arm_site(FaultSite::kCholeskyPivot, false);
  fi.arm_site(FaultSite::kNanBoundary, false);

  // min tr(X) s.t. X_00 + X_11 = 2 -- trivially solvable, but every
  // interior-point step is suppressed, so progress is impossible.
  SdpProblem p;
  p.block_dims = {2};
  p.block_obj_weight = {1.0};
  SdpConstraint c;
  c.entries = {{0, 0, 0, 1.0}, {0, 1, 1, 1.0}};
  c.rhs = 2.0;
  p.constraints.push_back(c);

  // The rescaled restarts are suppressed as well: the solver must come
  // back with a structured stall, having consumed its bounded retry
  // budget, instead of looping or asserting.
  const SdpSolution sol = solve_sdp(p);
  EXPECT_EQ(sol.status, SdpStatus::kStalled) << to_string(sol.status);
  EXPECT_EQ(sol.restarts, 2);
  EXPECT_GT(fi.fires(FaultSite::kSdpStall), 0u);
}

TEST_F(FaultInjection, SdpRecoversWhenStallIsTransient) {
  FaultInjector& fi = FaultInjector::instance();
  // Budget below the stall window: the fault delays, then the solve runs.
  fi.arm(/*seed=*/5, /*rate=*/1.0, /*max_fires=*/5);
  fi.arm_site(FaultSite::kCholeskyPivot, false);
  fi.arm_site(FaultSite::kNanBoundary, false);

  SdpProblem p;
  p.block_dims = {2};
  p.block_obj_weight = {1.0};
  SdpConstraint c;
  c.entries = {{0, 0, 0, 1.0}, {0, 1, 1, 1.0}};
  c.rhs = 2.0;
  p.constraints.push_back(c);
  const SdpSolution sol = solve_sdp(p);
  ASSERT_EQ(sol.status, SdpStatus::kConverged) << to_string(sol.status);
  EXPECT_NEAR(sol.primal_objective, 2.0, 1e-5);
}

TEST_F(FaultInjection, MinimaxSurfacesNonFiniteTargetsStructurally) {
  Mat design(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    design(i, 0) = 1.0;
    design(i, 1) = static_cast<double>(i);
  }
  Vec targets{0.0, 1.0, std::nan(""), 3.0};
  const MinimaxFitResult fit = minimax_fit(design, targets);
  EXPECT_FALSE(fit.ok);
  EXPECT_NE(fit.note.find("non-finite"), std::string::npos) << fit.note;
}

TEST_F(FaultInjection, PacDropsInjectedNansAndStillFits) {
  // Single-threaded so the injected-NaN positions are reproducible.
  set_parallel_threads(1);
  FaultInjector& fi = FaultInjector::instance();
  fi.arm(/*seed=*/17, /*rate=*/1.0, /*max_fires=*/6);
  fi.arm_site(FaultSite::kCholeskyPivot, false);
  fi.arm_site(FaultSite::kSdpStall, false);

  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  PacSettings settings = bench.pac;
  settings.max_degree = 2;
  PacFitOptions options;
  options.max_samples = 400;
  Rng rng(9);
  const ScalarFn fn = [](const Vec& x) { return 0.5 * x[0] - 0.25 * x[1]; };
  const PacResult result =
      pac_approximate(fn, bench.ccds.domain, settings, rng, options);
  set_parallel_threads(0);

  EXPECT_EQ(fi.fires(FaultSite::kNanBoundary), 6u);
  std::uint64_t dropped = 0;
  for (const auto& row : result.trace) dropped += row.dropped_samples;
  EXPECT_EQ(dropped, 6u);
  // The surviving scenario program still fits the (linear) target well.
  EXPECT_TRUE(std::isfinite(result.model.error));
}

TEST_F(FaultInjection, PipelineReportsUnverifiedInsteadOfAborting) {
  FaultInjector& fi = FaultInjector::instance();
  // Permanently suppress interior-point progress: the barrier stage cannot
  // certify anything, so the pipeline must degrade to a structured
  // UNVERIFIED verdict -- and must NOT claim VERIFIED.
  fi.arm(/*seed=*/23, /*rate=*/1.0, /*max_fires=*/std::uint64_t{1} << 40);
  fi.arm_site(FaultSite::kCholeskyPivot, false);
  fi.arm_site(FaultSite::kNanBoundary, false);

  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  PipelineConfig cfg;
  cfg.fast_mode = true;
  cfg.seed = 3;
  const ControlLaw teacher = [](const Vec& x) {
    const double x1 = x[0];
    return Vec{9.875 * x1 - 1.56 * x1 * x1 * x1 + 0.056 * std::pow(x1, 5) -
               x1 - 2.0 * x[1]};
  };
  const SynthesisResult result = synthesize_from_law(bench, teacher, cfg);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.verdict, "UNVERIFIED");
  EXPECT_EQ(result.failure_stage, "barrier");
  EXPECT_FALSE(result.failure_message.empty());
  EXPECT_GT(fi.fires(FaultSite::kSdpStall), 0u);
}

TEST_F(FaultInjection, DeterministicReplay) {
  FaultInjector& fi = FaultInjector::instance();
  // The same seed must produce the same fire pattern, probe for probe.
  std::vector<bool> first;
  fi.arm(/*seed=*/99, /*rate=*/0.3, /*max_fires=*/1000);
  for (int i = 0; i < 200; ++i)
    first.push_back(fi.should_fire(FaultSite::kNanBoundary));
  const std::uint64_t fires1 = fi.fires(FaultSite::kNanBoundary);
  fi.disarm();
  fi.arm(/*seed=*/99, /*rate=*/0.3, /*max_fires=*/1000);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(fi.should_fire(FaultSite::kNanBoundary), first[i]) << i;
  EXPECT_EQ(fi.fires(FaultSite::kNanBoundary), fires1);
}

// ---- SCS_FAULT_* parsing: every value is parsed whole, and a bad one is
// reported and ignored instead of arming something else.

constexpr int kSites = static_cast<int>(FaultSite::kCount);

TEST(FaultConfigParse, UnsetVariablesKeepTheDefaultsAndStayDisarmed) {
  const FaultConfig config =
      parse_fault_config(nullptr, nullptr, nullptr, nullptr);
  EXPECT_FALSE(config.armed);
  EXPECT_EQ(config.rate, 0.05);
  EXPECT_EQ(config.max_fires, 8u);
  for (int i = 0; i < kSites; ++i) EXPECT_TRUE(config.sites[i]);
  EXPECT_TRUE(config.ignored.empty());
  EXPECT_FALSE(parse_fault_config("", nullptr, nullptr, nullptr).armed);
}

TEST(FaultConfigParse, WellFormedValuesAreTaken) {
  const FaultConfig config =
      parse_fault_config("12345", "0.25", "3", "cholesky,nan");
  EXPECT_TRUE(config.armed);
  EXPECT_EQ(config.seed, 12345u);
  EXPECT_EQ(config.rate, 0.25);
  EXPECT_EQ(config.max_fires, 3u);
  EXPECT_TRUE(config.sites[static_cast<int>(FaultSite::kCholeskyPivot)]);
  EXPECT_FALSE(config.sites[static_cast<int>(FaultSite::kSdpStall)]);
  EXPECT_TRUE(config.sites[static_cast<int>(FaultSite::kNanBoundary)]);
  EXPECT_FALSE(config.sites[static_cast<int>(FaultSite::kStoreCorrupt)]);
  EXPECT_TRUE(config.ignored.empty());
  EXPECT_EQ(parse_fault_config("1", "0", nullptr, nullptr).rate, 0.0);
  EXPECT_EQ(parse_fault_config("1", "1", nullptr, nullptr).rate, 1.0);
  EXPECT_EQ(parse_fault_config("18446744073709551615", nullptr, nullptr,
                               nullptr)
                .seed,
            18446744073709551615ull);
}

TEST(FaultConfigParse, BadSeedLeavesTheInjectorDisarmed) {
  for (const char* seed : {"abc", "12x", " 7", "7 ", "-1", "+3",
                           "18446744073709551616"}) {
    const FaultConfig config =
        parse_fault_config(seed, nullptr, nullptr, nullptr);
    EXPECT_FALSE(config.armed) << seed;
    ASSERT_EQ(config.ignored.size(), 1u) << seed;
    EXPECT_NE(config.ignored[0].find("SCS_FAULT_SEED"), std::string::npos);
  }
}

TEST(FaultConfigParse, BadRateKeepsTheDefault) {
  for (const char* rate : {"nan", "NaN", "1.5", "-0.1", "inf", "", "0.1x",
                           "abc"}) {
    const FaultConfig config = parse_fault_config("1", rate, nullptr, nullptr);
    EXPECT_TRUE(config.armed) << rate;
    EXPECT_EQ(config.rate, 0.05) << rate;
    ASSERT_EQ(config.ignored.size(), 1u) << rate;
    EXPECT_NE(config.ignored[0].find("SCS_FAULT_RATE"), std::string::npos);
  }
}

TEST(FaultConfigParse, BadMaxFiresKeepsTheDefault) {
  for (const char* fires : {"-1", "", "8.5", "1e3", "99999999999999999999"}) {
    const FaultConfig config =
        parse_fault_config("1", nullptr, fires, nullptr);
    EXPECT_EQ(config.max_fires, 8u) << fires;
    ASSERT_EQ(config.ignored.size(), 1u) << fires;
    EXPECT_NE(config.ignored[0].find("SCS_FAULT_MAX_FIRES"),
              std::string::npos);
  }
}

TEST(FaultConfigParse, UnknownSiteKeepsEverySiteArmed) {
  // "lu" names a site that no longer exists; before whole-value parsing it
  // switched every site off while the injector still reported itself armed.
  for (const char* sites : {"lu", "cholesky,lu", "", "cholesky,", ",nan",
                            "cholesky,,nan", "Cholesky"}) {
    const FaultConfig config =
        parse_fault_config("1", nullptr, nullptr, sites);
    for (int i = 0; i < kSites; ++i) EXPECT_TRUE(config.sites[i]) << sites;
    ASSERT_EQ(config.ignored.size(), 1u) << sites;
    EXPECT_NE(config.ignored[0].find("SCS_FAULT_SITES"), std::string::npos);
  }
}

}  // namespace
}  // namespace scs
