// Tests for the SOS program compiler and certificate utilities.
#include <gtest/gtest.h>

#include <cmath>

#include "obs/metrics.hpp"
#include "poly/basis.hpp"
#include "sos/certificate.hpp"
#include "sos/sos_program.hpp"
#include "util/check.hpp"

namespace scs {
namespace {

Polynomial var(std::size_t n, std::size_t i) {
  return Polynomial::variable(n, i);
}

TEST(SosProgram, FreePolyEqualityConstraint) {
  // Find free f (degree <= 1) with f - (2 x1 + 3) == 0.
  SosProgram prog(1);
  const auto f = prog.add_free_poly(monomials_up_to(1, 1));
  const Polynomial target = var(1, 0) * 2.0 + Polynomial::constant(1, 3.0);
  prog.add_identity(-target, {{Polynomial::constant(1, 1.0), f, {}}});
  const auto result = prog.solve();
  ASSERT_TRUE(result.feasible);
  EXPECT_LT(max_coefficient_diff(result.value(f), target), 1e-5);
}

TEST(SosProgram, DerivativeTermsCompileCorrectly) {
  // Find free B (degree <= 2) with dB/dx1 - 2 x1 == 0 and B(0) pinned by
  // B - x1^2 - s == 0 on a second identity with SOS slack s... simpler:
  // dB/dx1 == 2 x1 and dB/dx2 == 0 and B - x1^2 == 0.
  SosProgram prog(2);
  const auto b = prog.add_free_poly(monomials_up_to(2, 2));
  const Polynomial one = Polynomial::constant(2, 1.0);
  prog.add_identity(-var(2, 0) * 2.0, {{one, b, 0}});
  prog.add_identity(Polynomial(2), {{one, b, 1}});
  prog.add_identity(-var(2, 0).pow(2), {{one, b, {}}});
  const auto result = prog.solve();
  ASSERT_TRUE(result.feasible);
  EXPECT_LT(max_coefficient_diff(result.value(b), var(2, 0).pow(2)), 1e-5);
}

TEST(SosProgram, PutinarCertificateOnInterval) {
  // Certify f = x (1 - x) + 0.3 >= 0 on [0, 1] = {g1 = x >= 0, g2 = 1-x >= 0}:
  // find SOS s0, s1, s2 with f = s0 + s1 g1 + s2 g2. The classical
  // certificate x(1-x) = (1-x)^2 x + x^2 (1-x) needs degree-2 multipliers.
  const auto x = var(1, 0);
  const Polynomial f =
      x * (Polynomial::constant(1, 1.0) - x) + Polynomial::constant(1, 0.3);
  const Polynomial g1 = x;
  const Polynomial g2 = Polynomial::constant(1, 1.0) - x;

  SosProgram prog(1);
  const auto s0 = prog.add_sos_poly(monomials_up_to(1, 1));
  const auto s1 = prog.add_sos_poly(monomials_up_to(1, 1));
  const auto s2 = prog.add_sos_poly(monomials_up_to(1, 1));
  const Polynomial one = Polynomial::constant(1, 1.0);
  // f - s0 - s1 g1 - s2 g2 == 0.
  prog.add_identity(f, {{-one, s0, {}}, {-g1, s1, {}}, {-g2, s2, {}}});
  // One solve adds the summed Gram basis sizes (3 blocks of {1, x}) to
  // sos.prune.gram_dim, which perfbench reads as its `sos.gram_dim`.
  const bool was_enabled = metrics_enabled();
  set_metrics_enabled(true);
  const Counter& gram_dim =
      MetricsRegistry::instance().counter("sos.prune.gram_dim");
  const std::uint64_t before = gram_dim.value();
  const auto result = prog.solve();
  const std::uint64_t added = gram_dim.value() - before;
  set_metrics_enabled(was_enabled);
  EXPECT_EQ(added, 6u);
  ASSERT_TRUE(result.feasible);
  // Cross-check with the standalone Putinar checker.
  EXPECT_TRUE(check_putinar_identity(
      f, result.value(s0), {g1, g2}, {result.value(s1), result.value(s2)},
      1e-4));
}

TEST(SosProgram, InfeasibleCertificateDetected) {
  // f = x - 2 is negative on part of [0, 1]: no Putinar certificate of any
  // degree exists for nonnegativity on [0,1].
  const auto x = var(1, 0);
  const Polynomial f = x - Polynomial::constant(1, 2.0);
  const Polynomial g1 = x;
  const Polynomial g2 = Polynomial::constant(1, 1.0) - x;
  SosProgram prog(1);
  const auto s0 = prog.add_sos_poly(monomials_up_to(1, 1));
  const auto s1 = prog.add_sos_poly(monomials_up_to(1, 0));
  const auto s2 = prog.add_sos_poly(monomials_up_to(1, 0));
  const Polynomial one = Polynomial::constant(1, 1.0);
  prog.add_identity(f, {{-one, s0, {}}, {-g1, s1, {}}, {-g2, s2, {}}});
  EXPECT_FALSE(prog.solve().feasible);
}

TEST(SosProgram, InfeasibleProgramReturnsCheckedCertificate) {
  // s = -1 - x^2 with s SOS over {1, x}: the constant and x^2 coefficients
  // of s would have to be negative. The SDP's dual iterate proves it.
  SosProgram prog(1);
  const auto s = prog.add_sos_poly(monomials_up_to(1, 1));
  // s - (-1 - x^2) == 0.
  prog.add_identity(Polynomial::constant(1, 1.0) + var(1, 0).pow(2),
                    {{Polynomial::constant(1, 1.0), s, {}}});
  const SdpProblem sdp = prog.compile();
  const bool was_enabled = metrics_enabled();
  set_metrics_enabled(true);
  const Counter& infeasible =
      MetricsRegistry::instance().counter("sdp.infeasible");
  const std::uint64_t before = infeasible.value();
  const SdpSolution sol = solve_sdp(sdp);
  const std::uint64_t added = infeasible.value() - before;
  set_metrics_enabled(was_enabled);
  ASSERT_EQ(sol.status, SdpStatus::kInfeasible);
  EXPECT_EQ(added, 1u);
  EXPECT_GT(sol.infeasibility_bound, kInfeasibilitySize);
  // The bound is recomputed from the problem data alone.
  EXPECT_EQ(infeasibility_bound(sdp, sol.y), sol.infeasibility_bound);

  // A perturbed certificate fails the check: flip the largest entry of y.
  Vec y = sol.y;
  std::size_t largest = 0;
  for (std::size_t i = 1; i < y.size(); ++i)
    if (std::fabs(y[i]) > std::fabs(y[largest])) largest = i;
  y[largest] = -y[largest];
  EXPECT_LT(infeasibility_bound(sdp, y), kInfeasibilitySize);

  const auto result = prog.solve();
  EXPECT_FALSE(result.feasible);
  EXPECT_EQ(result.values.size(), 1u);  // extracted from the last iterate
  EXPECT_EQ(result.failure_reason.rfind("SDP infeasible: every solution", 0),
            0u)
      << result.failure_reason;
}

TEST(SosProgram, CompileProducesOneEquationPerMonomial) {
  SosProgram prog(2);
  const auto s0 = prog.add_sos_poly(monomials_up_to(2, 1));
  const Polynomial one = Polynomial::constant(2, 1.0);
  // s0 - (x1^2 + x2^2 + 1) == 0 touches monomials {1, x1, x2, x1^2,
  // x1 x2, x2^2}: 6 equations.
  const Polynomial target =
      var(2, 0).pow(2) + var(2, 1).pow(2) + Polynomial::constant(2, 1.0);
  prog.add_identity(-target, {{one, s0, {}}});
  const SdpProblem sdp = prog.compile();
  EXPECT_EQ(sdp.constraints.size(), 6u);
  EXPECT_EQ(sdp.block_dims.size(), 1u);
  EXPECT_EQ(sdp.block_dims[0], 3u);
}

TEST(SosProgram, RejectsDerivativeOnSosVar) {
  SosProgram prog(1);
  const auto s = prog.add_sos_poly(monomials_up_to(1, 1));
  EXPECT_THROW(
      prog.add_identity(Polynomial(1),
                        {{Polynomial::constant(1, 1.0), s, 0}}),
      PreconditionError);
}

TEST(CheckPutinar, DetectsMismatch) {
  const auto x = var(1, 0);
  EXPECT_FALSE(check_putinar_identity(x, x * x, {}, {}, 1e-9));
}

}  // namespace
}  // namespace scs
