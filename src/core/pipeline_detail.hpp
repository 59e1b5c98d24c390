// Internal seam between the public synthesize() wrappers, the SynthesisJob
// unit, and the staged implementation in pipeline.cpp. Not part of the
// public surface; only core/*.cpp should include this.
#pragma once

#include <cstdint>

#include "core/job.hpp"

namespace scs {
namespace detail {

/// Run one job. `law` == nullptr runs the full pipeline (RL stage
/// included); otherwise stages 2-4 run against *law.
SynthesisResult run_synthesis_job(const Benchmark& benchmark,
                                  const ControlLaw* law,
                                  const PipelineConfig& config,
                                  const JobContext& ctx);

/// The run-identity key run_synthesis_job records in the ledger for a full
/// run of this (benchmark, config) pair: the RL stage key.
std::uint64_t job_config_key(const Benchmark& benchmark,
                             const PipelineConfig& config);

}  // namespace detail
}  // namespace scs
