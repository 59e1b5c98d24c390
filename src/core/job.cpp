#include "core/job.hpp"

#include <utility>

#include "core/pipeline_detail.hpp"

namespace scs {

SynthesisJob::SynthesisJob(Benchmark benchmark, PipelineConfig config)
    : benchmark_(std::move(benchmark)), config_(std::move(config)) {}

std::uint64_t SynthesisJob::config_key() const {
  return detail::job_config_key(benchmark_, config_);
}

SynthesisResult SynthesisJob::run(const JobContext& ctx) const {
  return detail::run_synthesis_job(benchmark_, nullptr, config_, ctx);
}

}  // namespace scs
