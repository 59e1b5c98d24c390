// The 'nncontroller' comparison baseline of Table 2 (Zhao et al. [18]):
// learn a neural controller *and* a neural barrier certificate jointly by
// supervised condition losses, then verify the learned certificate
// exhaustively.
//
// Substitution (see DESIGN.md): the original verifies with an SMT solver;
// offline we use an exhaustive grid check over Psi with a per-cell margin.
// Both are exponential in the state dimension, which is exactly the scaling
// behaviour Table 2 demonstrates (success for n <= 3, failure beyond).
#pragma once

#include <cstdint>
#include <string>

#include "systems/ccds.hpp"
#include "util/rng.hpp"

namespace scs {

/// The two settings a caller sets; the network sizes, loss margins, grid
/// and seed are constants in nncontroller.cpp.
struct NnControllerConfig {
  int train_iterations = 4000;
  double verify_budget_seconds = 60.0;
};

struct NnControllerResult {
  bool success = false;       // trained and verified
  bool verified = false;
  double train_seconds = 0.0;
  double verify_seconds = 0.0;   // T_n when verified
  double total_seconds = 0.0;
  std::uint64_t grid_points = 0; // size of the verification grid (0: skipped)
  std::string barrier_structure;  // e.g. "2-30-1" as in Table 2
  std::string reason;            // failure explanation ("x" cases)
};

/// Run the full baseline on one system.
NnControllerResult run_nncontroller(const Ccds& system,
                                    const NnControllerConfig& config);

}  // namespace scs
