// Portfolio-racing benchmark: serial ladder vs raced arms on a BMI-heavy
// system, plus the bitwise replay-determinism guarantee. Results are
// printed and written to BENCH_race.json; the self-checks mirror the
// acceptance criteria (raced >= 1.3x faster than serial at 4 lanes, replay
// of the recorded winner bitwise-identical, same verdict both ways).
//
// The workload is chosen so the serial schedule has real work to burn: on
// a moderately damped oscillator at degree 4, the alternating-BMI arm for
// attempt 0 draws an unlucky lambda and grinds through three lambda-/B-
// step rounds (7 solves) before its certificate passes the gate, while
// the draws of attempts 1-3 certify on the first solve. The serial ladder
// always pays for the grinder in full; the racer runs all four arms at
// once and cancels it mid-solve through its child JobControl scope the
// moment a sibling wins -- which is why racing wins even on one core.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "barrier/synthesis.hpp"
#include "obs/ledger.hpp"
#include "systems/ccds.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace scs {
namespace {

/// Damped oscillator with the unsafe shell at |x| >= 1.5. Under the
/// alternating-BMI strategy at degree 4 (seed 1), the attempt-0 lambda
/// draw certifies only after three lambda-/B-step rounds (7 solves), while
/// attempts 1-3 certify on their first solve.
Ccds bmi_heavy_system() {
  Ccds sys;
  sys.name = "racebench";
  sys.num_states = 2;
  sys.num_controls = 1;
  const auto x1 = Polynomial::variable(3, 0);
  const auto x2 = Polynomial::variable(3, 1);
  const auto u = Polynomial::variable(3, 2);
  sys.open_field = {x2, x1 * -1.0 - x2 * 0.5 + u};
  const Box box = Box::centered(2, 2.0);
  sys.init_set = SemialgebraicSet::ball(Vec{0.0, 0.0}, 0.5);
  sys.domain = SemialgebraicSet::from_box(box);
  sys.unsafe_set = SemialgebraicSet::outside_ball(Vec{0.0, 0.0}, 1.5, box);
  sys.control_bound = 1.0;
  return sys;
}

BarrierConfig ladder_config() {
  BarrierConfig cfg;
  cfg.degree_schedule = {4};
  cfg.lambda_attempts = 4;
  cfg.bmi_rounds = 8;
  cfg.seed = 1;
  cfg.race.strategies = {LambdaStrategy::kAlternating};
  return cfg;
}

}  // namespace
}  // namespace scs

int main() {
  using namespace scs;

  const bool fast = std::getenv("SCS_FAST") != nullptr;
  const int reps = fast ? 1 : 3;
  constexpr int kLanes = 4;
  set_parallel_threads(kLanes);

  const Ccds sys = bmi_heavy_system();
  const std::vector<Polynomial> controller = {Polynomial(2)};
  const BarrierConfig serial_cfg = ladder_config();
  BarrierConfig race_cfg = serial_cfg;
  race_cfg.race.enabled = true;

  std::cout << "=== Portfolio racing benchmark (" << sys.name << ", "
            << kLanes << " lanes, " << reps << " rep(s)) ===\n";

  // Best-of-N for both modes: the gate compares steady-state cost, not a
  // cold-start outlier.
  double serial_s = 0.0, race_s = 0.0;
  BarrierResult serial, raced;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch sw;
    serial = synthesize_barrier(sys, controller, serial_cfg);
    const double t = sw.seconds();
    serial_s = rep == 0 ? t : std::min(serial_s, t);
  }
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch sw;
    raced = synthesize_barrier(sys, controller, race_cfg);
    const double t = sw.seconds();
    race_s = rep == 0 ? t : std::min(race_s, t);
  }
  const double speedup = race_s > 0.0 ? serial_s / race_s : 0.0;

  // Replay determinism: pin the recorded winner and demand a bitwise-equal
  // certificate (exact coefficient equality, exact diagnostics).
  BarrierConfig replay_cfg = race_cfg;
  replay_cfg.race.replay_arm = raced.winner_arm;
  const BarrierResult replayed = synthesize_barrier(sys, controller,
                                                    replay_cfg);
  const bool replay_bitwise =
      raced.success && replayed.success &&
      replayed.barrier == raced.barrier && replayed.lambda == raced.lambda &&
      replayed.max_identity_residual == raced.max_identity_residual &&
      replayed.min_gram_eigenvalue == raced.min_gram_eigenvalue &&
      replayed.winner_arm_desc == raced.winner_arm_desc;

  set_parallel_threads(0);

  std::cout << "  serial ladder: " << (serial.success ? "ok" : "FAILED")
            << ", winner arm " << serial.winner_arm << " ("
            << serial.winner_arm_desc << "), " << serial.attempts
            << " solves, best " << serial_s << " s\n"
            << "  raced ladder:  " << (raced.success ? "ok" : "FAILED")
            << ", winner arm " << raced.winner_arm << " ("
            << raced.winner_arm_desc << "), " << raced.arms_launched
            << " launched / " << raced.arms_cancelled << " cancelled, best "
            << race_s << " s\n"
            << "  speedup: " << speedup << "x (gate >= 1.3x)\n"
            << "  replay of arm " << raced.winner_arm << ": "
            << (replay_bitwise ? "bitwise-identical" : "MISMATCH") << "\n";

  std::ostringstream json;
  json << "{\"system\":\"racebench\""
       << ",\"lanes\":" << kLanes
       << ",\"reps\":" << reps
       << ",\"serial_seconds\":" << serial_s
       << ",\"race_seconds\":" << race_s
       << ",\"race_speedup\":" << speedup
       << ",\"serial_success\":" << (serial.success ? "true" : "false")
       << ",\"race_success\":" << (raced.success ? "true" : "false")
       << ",\"winner_arm\":" << raced.winner_arm
       << ",\"arms_launched\":" << raced.arms_launched
       << ",\"arms_cancelled\":" << raced.arms_cancelled
       << ",\"replay_bitwise\":" << (replay_bitwise ? "true" : "false")
       << "}";
  std::ofstream("BENCH_race.json") << json.str() << "\n";
  std::cout << "wrote BENCH_race.json\n";
  if (ledger_append_bench("bench_race", json.str()))
    std::cout << "ledger record appended to " << resolve_ledger_path("")
              << "\n";

  bool ok = true;
  if (!serial.success) {
    std::cerr << "FAIL: serial ladder found no certificate: "
              << serial.failure_reason << "\n";
    ok = false;
  }
  if (!raced.success) {
    std::cerr << "FAIL: raced ladder found no certificate: "
              << raced.failure_reason << "\n";
    ok = false;
  }
  if (!replay_bitwise) {
    std::cerr << "FAIL: replay of the winning arm is not bitwise-identical\n";
    ok = false;
  }
  if (!fast && speedup < 1.3) {
    std::cerr << "FAIL: racing only " << speedup
              << "x faster than the serial ladder (need >= 1.3x)\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
