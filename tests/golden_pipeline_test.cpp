// Golden end-to-end regression: the C1 pendulum pipeline (VERIFIED) and a
// deliberately uncontrollable system (UNVERIFIED) at fixed seeds, compared
// against checked-in golden files with explicit tolerances. Each run is also
// required to be bitwise-identical across 1 and 4 worker threads.
//
// Regenerate the goldens after an intentional numeric change with
//   SCS_UPDATE_GOLDEN=1 ./golden_pipeline_test
// and commit the diff alongside the change that caused it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "poly/parse.hpp"
#include "util/thread_pool.hpp"

namespace scs {
namespace {

#ifndef SCS_GOLDEN_DIR
#define SCS_GOLDEN_DIR "tests/golden"
#endif

constexpr double kCoeffTol = 1e-9;   // golden coefficient agreement
constexpr double kScalarTol = 1e-9;  // golden scalar agreement

ControlLaw pendulum_teacher() {
  return [](const Vec& x) {
    const double x1 = x[0];
    return Vec{9.875 * x1 - 1.56 * x1 * x1 * x1 + 0.056 * std::pow(x1, 5) -
               x1 - 2.0 * x[1]};
  };
}

/// A 1-state system x' = u driven toward the unsafe set by its "teacher":
/// no barrier certificate exists, so the pipeline must deterministically
/// report UNVERIFIED (and never crash on the way there).
Benchmark unstable_benchmark() {
  Benchmark bench;
  bench.id = BenchmarkId::kC1;
  bench.name = "golden-unstable";
  bench.ccds.name = "golden-unstable";
  bench.ccds.num_states = 1;
  bench.ccds.num_controls = 1;
  bench.ccds.open_field = {Polynomial::variable(2, 1)};
  const Box box = Box::centered(1, 3.0);
  bench.ccds.init_set = SemialgebraicSet::ball(Vec{0.0}, 0.5);
  bench.ccds.domain = SemialgebraicSet::from_box(box);
  bench.ccds.unsafe_set = SemialgebraicSet::outside_ball(Vec{0.0}, 2.0, box);
  bench.ccds.control_bound = 3.0;
  bench.pac.max_degree = 2;
  return bench;
}

ControlLaw destabilizing_law() {
  return [](const Vec& x) { return Vec{2.0 * x[0]}; };
}

// ---- Minimal flat-JSON helpers (string and number fields, one per key).

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string extract_string(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return {};
  std::string out;
  for (std::size_t i = pos + needle.size(); i < json.size(); ++i) {
    if (json[i] == '\\') {
      ++i;
      if (i < json.size()) out.push_back(json[i]);
    } else if (json[i] == '"') {
      break;
    } else {
      out.push_back(json[i]);
    }
  }
  return out;
}

double extract_number(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return std::nan("");
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

/// The persisted signature of one golden pipeline run.
struct GoldenRecord {
  std::string verdict;
  std::string failure_stage;
  std::string controller;  // polynomial, full precision
  std::string barrier;     // polynomial, full precision (empty if none)
  std::string lambda;      // the certificate's lambda(x) (empty if none);
                           // consumed by independent_check_test as the
                           // stored-certificate input for perturbation tests
  double pac_error = 0.0;
  double pac_eps = 0.0;
  int pac_degree = 0;
  int barrier_degree = 0;
};

GoldenRecord record_of(const SynthesisResult& result) {
  GoldenRecord rec;
  rec.verdict = result.verdict;
  rec.failure_stage = result.failure_stage;
  if (!result.controller.empty())
    rec.controller = result.controller.front().to_string(17);
  if (result.barrier.success) {
    rec.barrier = result.barrier.barrier.to_string(17);
    rec.lambda = result.barrier.lambda.to_string(17);
    rec.barrier_degree = result.barrier.degree;
  }
  rec.pac_error = result.pac.model.error;
  rec.pac_eps = result.pac.model.eps;
  rec.pac_degree = result.pac.model.degree;
  return rec;
}

void save_golden(const GoldenRecord& rec, const std::string& path) {
  std::ofstream os(path);
  ASSERT_TRUE(os.good()) << "cannot write " << path;
  os.precision(17);
  os << "{\n"
     << "  \"verdict\": \"" << json_escape(rec.verdict) << "\",\n"
     << "  \"failure_stage\": \"" << json_escape(rec.failure_stage) << "\",\n"
     << "  \"controller\": \"" << json_escape(rec.controller) << "\",\n"
     << "  \"barrier\": \"" << json_escape(rec.barrier) << "\",\n"
     << "  \"lambda\": \"" << json_escape(rec.lambda) << "\",\n"
     << "  \"pac_error\": " << rec.pac_error << ",\n"
     << "  \"pac_eps\": " << rec.pac_eps << ",\n"
     << "  \"pac_degree\": " << rec.pac_degree << ",\n"
     << "  \"barrier_degree\": " << rec.barrier_degree << "\n"
     << "}\n";
}

GoldenRecord load_golden(const std::string& path, bool& found) {
  GoldenRecord rec;
  std::ifstream is(path);
  found = is.good();
  if (!found) return rec;
  std::stringstream buffer;
  buffer << is.rdbuf();
  const std::string json = buffer.str();
  rec.verdict = extract_string(json, "verdict");
  rec.failure_stage = extract_string(json, "failure_stage");
  rec.controller = extract_string(json, "controller");
  rec.barrier = extract_string(json, "barrier");
  rec.lambda = extract_string(json, "lambda");
  rec.pac_error = extract_number(json, "pac_error");
  rec.pac_eps = extract_number(json, "pac_eps");
  rec.pac_degree = static_cast<int>(extract_number(json, "pac_degree"));
  rec.barrier_degree =
      static_cast<int>(extract_number(json, "barrier_degree"));
  return rec;
}

void expect_poly_near(const std::string& got, const std::string& want,
                      std::size_t num_vars, const char* what) {
  ASSERT_EQ(got.empty(), want.empty()) << what;
  if (got.empty()) return;
  const Polynomial pg = parse_polynomial(got, num_vars);
  const Polynomial pw = parse_polynomial(want, num_vars);
  EXPECT_LT(max_coefficient_diff(pg, pw), kCoeffTol) << what;
}

void compare_to_golden(const SynthesisResult& result,
                       const std::string& golden_name,
                       std::size_t num_vars) {
  const std::string path = std::string(SCS_GOLDEN_DIR) + "/" + golden_name;
  const GoldenRecord rec = record_of(result);
  if (std::getenv("SCS_UPDATE_GOLDEN") != nullptr) {
    save_golden(rec, path);
    GTEST_SKIP() << "golden updated: " << path;
  }
  bool found = false;
  const GoldenRecord want = load_golden(path, found);
  ASSERT_TRUE(found) << "missing golden file " << path
                     << " (run with SCS_UPDATE_GOLDEN=1 to create)";
  EXPECT_EQ(rec.verdict, want.verdict);
  EXPECT_EQ(rec.failure_stage, want.failure_stage);
  EXPECT_EQ(rec.pac_degree, want.pac_degree);
  EXPECT_EQ(rec.barrier_degree, want.barrier_degree);
  EXPECT_NEAR(rec.pac_error, want.pac_error,
              kScalarTol * std::max(1.0, std::fabs(want.pac_error)));
  EXPECT_NEAR(rec.pac_eps, want.pac_eps,
              kScalarTol * std::max(1.0, std::fabs(want.pac_eps)));
  expect_poly_near(rec.controller, want.controller, num_vars, "controller");
  expect_poly_near(rec.barrier, want.barrier, num_vars, "barrier");
  expect_poly_near(rec.lambda, want.lambda, num_vars, "lambda");
}

/// Run at an explicit worker count, restoring the default afterwards.
SynthesisResult run_with_threads(const Benchmark& bench, const ControlLaw& law,
                                 const PipelineConfig& cfg,
                                 std::size_t threads) {
  set_parallel_threads(threads);
  SynthesisResult result = synthesize_from_law(bench, law, cfg);
  set_parallel_threads(0);
  return result;
}

TEST(GoldenPipeline, VerifiedC1MatchesGoldenAcrossThreadCounts) {
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  PipelineConfig cfg;
  cfg.fast_mode = true;
  cfg.seed = 3;

  const SynthesisResult r1 =
      run_with_threads(bench, pendulum_teacher(), cfg, 1);
  const SynthesisResult r4 =
      run_with_threads(bench, pendulum_teacher(), cfg, 4);

  // Bitwise thread-count determinism: the full-precision signatures of the
  // two runs must agree exactly, not merely within tolerance.
  EXPECT_EQ(record_of(r1).controller, record_of(r4).controller);
  EXPECT_EQ(record_of(r1).barrier, record_of(r4).barrier);
  EXPECT_EQ(r1.pac.model.error, r4.pac.model.error);
  EXPECT_EQ(r1.verdict, r4.verdict);

  ASSERT_EQ(r1.verdict, "VERIFIED")
      << r1.failure_stage << ": " << r1.failure_message;
  compare_to_golden(r1, "c1_verified.json", bench.ccds.num_states);
}

TEST(GoldenPipeline, UnstableSystemIsDeterministicallyUnverified) {
  const Benchmark bench = unstable_benchmark();
  PipelineConfig cfg;
  cfg.fast_mode = true;
  cfg.seed = 5;

  const SynthesisResult r1 =
      run_with_threads(bench, destabilizing_law(), cfg, 1);
  const SynthesisResult r4 =
      run_with_threads(bench, destabilizing_law(), cfg, 4);

  EXPECT_EQ(record_of(r1).controller, record_of(r4).controller);
  EXPECT_EQ(r1.pac.model.error, r4.pac.model.error);
  EXPECT_EQ(r1.verdict, r4.verdict);

  ASSERT_EQ(r1.verdict, "UNVERIFIED");
  EXPECT_FALSE(r1.success);
  EXPECT_FALSE(r1.failure_message.empty());
  compare_to_golden(r1, "unstable_unverified.json", bench.ccds.num_states);
}

/// Run the unstable system with metrics on; returns the result and the
/// number of SDP solves the run made.
std::pair<SynthesisResult, std::uint64_t> run_unstable_counting_solves(
    const PipelineConfig& cfg) {
  const bool was_enabled = metrics_enabled();
  set_metrics_enabled(true);
  const Counter& solves = MetricsRegistry::instance().counter("sdp.solves");
  const std::uint64_t before = solves.value();
  SynthesisResult result =
      synthesize_from_law(unstable_benchmark(), destabilizing_law(), cfg);
  const std::uint64_t after = solves.value();
  set_metrics_enabled(was_enabled);
  return {std::move(result), after - before};
}

TEST(GoldenPipeline, FailedBarrierStageCountsEveryRung) {
  // Every rung of the barrier ladder fails on the unstable system; the
  // stage's attempts must cover all of them, not just the primary rung.
  PipelineConfig cfg;
  cfg.fast_mode = true;
  cfg.seed = 5;
  const auto [r, solves] = run_unstable_counting_solves(cfg);
  ASSERT_EQ(r.failure_stage, "barrier");
  EXPECT_EQ(static_cast<std::uint64_t>(r.barrier.attempts), solves);
  EXPECT_GT(r.barrier.seconds, 0.0);
}

TEST(GoldenPipeline, AlternatingStrategyAppendsNoSecondAlternatingRung) {
  // With lambda_strategy = alternating the primary rung already runs the
  // BMI schedule, so the ladder appends no alternating rung after it. That
  // rung is the default ladder's last one run on its own: the same arms on
  // the same streams, failing with the same text minus the "r1/" prefix.
  PipelineConfig cfg;
  cfg.fast_mode = true;
  cfg.seed = 5;
  const auto [plain, plain_solves] = run_unstable_counting_solves(cfg);
  cfg.barrier.lambda_strategy = LambdaStrategy::kAlternating;
  const auto [alt, alt_solves] = run_unstable_counting_solves(cfg);
  ASSERT_EQ(plain.failure_stage, "barrier");
  ASSERT_EQ(alt.failure_stage, "barrier");
  const std::string plain_tail = "arm r1/alternating-BMI/d=4/a=3: ";
  const std::string alt_tail = "arm alternating-BMI/d=4/a=3: ";
  ASSERT_EQ(plain.barrier.failure_reason.rfind(plain_tail, 0), 0u)
      << plain.barrier.failure_reason;
  ASSERT_EQ(alt.barrier.failure_reason.rfind(alt_tail, 0), 0u)
      << alt.barrier.failure_reason;
  EXPECT_EQ(alt.barrier.failure_reason.substr(alt_tail.size()),
            plain.barrier.failure_reason.substr(plain_tail.size()));
  EXPECT_EQ(alt.barrier.max_identity_residual,
            plain.barrier.max_identity_residual);
  EXPECT_EQ(static_cast<std::uint64_t>(alt.barrier.attempts), alt_solves);
  // The default's first rung: two degrees x four constant-lambda LMIs.
  EXPECT_EQ(plain_solves - alt_solves, 8u);
}

TEST(GoldenPipeline, CertificateFromALaterRungIsAdopted) {
  // 1-D integrator under a cubic law: PAC picks the degree-3 surrogate,
  // whose SOS programs exceed the size guard, as do the degree-2 ones. The
  // degree-1 surrogate (ladder rung 2) yields the certificate, and the
  // result adopts that rung's controller and PAC model.
  Benchmark bench;
  bench.id = BenchmarkId::kC1;
  bench.name = "race-cubic";
  bench.ccds.name = "race-cubic";
  bench.ccds.num_states = 1;
  bench.ccds.num_controls = 1;
  bench.ccds.open_field = {Polynomial::variable(2, 1)};
  const Box box = Box::centered(1, 3.0);
  bench.ccds.init_set = SemialgebraicSet::ball(Vec{0.0}, 0.5);
  bench.ccds.domain = SemialgebraicSet::from_box(box);
  bench.ccds.unsafe_set = SemialgebraicSet::outside_ball(Vec{0.0}, 2.0, box);
  bench.ccds.control_bound = 3.0;
  bench.pac.max_degree = 3;
  const ControlLaw law = [](const Vec& x) {
    return Vec{-x[0] - 0.1 * x[0] * x[0] * x[0]};
  };
  PipelineConfig cfg;
  cfg.fast_mode = true;
  cfg.seed = 5;
  cfg.barrier.max_sdp_constraints = 10;
  const SynthesisResult found = synthesize_from_law(bench, law, cfg);
  ASSERT_TRUE(found.barrier.success) << found.barrier.failure_reason;
  EXPECT_EQ(found.barrier.accepted_arm.rfind("r2/", 0), 0u)
      << found.barrier.accepted_arm;
  EXPECT_EQ(found.pac.model.degree, 1);
  ASSERT_EQ(found.controller.size(), 1u);
  EXPECT_EQ(found.controller.front().degree(), 1);
}

}  // namespace
}  // namespace scs
