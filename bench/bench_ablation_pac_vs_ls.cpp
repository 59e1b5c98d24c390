// E3 -- ablation for the Section 3.2 claim: PAC/minimax approximation beats
// plain least squares for controller surrogacy.
//
// On the pendulum teacher controller, for each template degree we compare
//   (a) the LS fit's max error (what the paper calls the un-quantified
//       baseline) against the minimax fit's max error, and
//   (b) whether the downstream barrier verification succeeds with each
//       surrogate.
// The expected shape: minimax max-error <= LS max-error at every degree
// (strictly smaller in the tail), and PAC's degree selection picks the
// smallest verifiable degree.
#include <cmath>
#include <iomanip>
#include <iostream>

#include "barrier/synthesis.hpp"
#include "opt/minimax_fit.hpp"
#include "poly/basis.hpp"
#include "systems/benchmarks.hpp"
#include "util/stopwatch.hpp"

int main() {
  using namespace scs;
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);

  // The gravity-compensating teacher (what DDPG converges to on C1).
  const auto teacher = [](const Vec& x) {
    const double x1 = x[0];
    return 9.875 * x1 - 1.56 * x1 * x1 * x1 + 0.056 * std::pow(x1, 5) - x1 -
           2.0 * x[1];
  };

  Rng rng(5);
  const std::size_t K = 20000;
  std::vector<Vec> points;
  Vec targets(K);
  for (std::size_t i = 0; i < K; ++i) {
    Vec x = bench.ccds.domain.sample(rng);
    targets[i] = teacher(x);
    points.push_back(std::move(x));
  }

  std::cout << "=== Ablation: PAC (minimax) vs least-squares surrogates, "
               "pendulum teacher, K = " << K << " ===\n";
  std::cout << std::left << std::setw(4) << "d" << std::setw(14) << "LS max|r|"
            << std::setw(14) << "LS rmse" << std::setw(16) << "minimax max|r|"
            << std::setw(12) << "LS verif." << std::setw(14)
            << "minimax verif." << "\n";

  for (int d = 1; d <= 4; ++d) {
    const auto basis = monomials_up_to(2, d);
    Mat design(K, basis.size());
    for (std::size_t i = 0; i < K; ++i)
      design.set_row(i, evaluate_basis(basis, points[i]));

    const MinimaxFitResult ls = least_squares_fit(design, targets);
    const Polynomial ls_poly =
        Polynomial::from_coefficients(basis, ls.coefficients);
    Vec residual = targets;
    residual -= matvec(design, ls.coefficients);
    const double ls_rmse =
        std::sqrt(dot(residual, residual) / static_cast<double>(K));

    const MinimaxFitResult mm = minimax_fit(design, targets);
    const Polynomial mm_poly =
        Polynomial::from_coefficients(basis, mm.coefficients);

    BarrierConfig bcfg;
    bcfg.lambda_attempts = 2;
    const bool ls_ok =
        synthesize_barrier(bench.ccds, {ls_poly}, bcfg).success;
    const bool mm_ok =
        synthesize_barrier(bench.ccds, {mm_poly}, bcfg).success;

    std::cout << std::left << std::setw(4) << d << std::setw(14)
              << ls.error << std::setw(14) << ls_rmse << std::setw(16)
              << mm.error << std::setw(12) << (ls_ok ? "yes" : "no")
              << std::setw(14) << (mm_ok ? "yes" : "no") << "\n";
  }
  std::cout << "\n(expected shape: minimax max-error <= LS max-error for "
               "every d;\n verification succeeds once the surrogate error is "
               "small enough)\n";
  return 0;
}
