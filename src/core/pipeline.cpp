#include "core/pipeline.hpp"

#include <algorithm>
#include <optional>

#include "core/pipeline_detail.hpp"
#include "core/report.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace scs {

namespace {

/// Arm tracing / metrics for one run per PipelineConfig::obs, and flush the
/// requested files when the run finishes (destructor). Env-armed
/// observability (SCS_TRACE / SCS_METRICS) flushes at process exit instead
/// and is not touched here.
class ObsRunScope {
 public:
  explicit ObsRunScope(const ObsConfig& obs) : obs_(obs) {
    if (!obs_.trace_path.empty()) trace_start(obs_.trace_path);
    if (!obs_.metrics_path.empty()) set_metrics_enabled(true);
  }
  ~ObsRunScope() {
    if (!obs_.trace_path.empty()) trace_write(obs_.trace_path);
    if (!obs_.metrics_path.empty()) metrics_write(obs_.metrics_path);
  }
  ObsRunScope(const ObsRunScope&) = delete;
  ObsRunScope& operator=(const ObsRunScope&) = delete;

 private:
  ObsConfig obs_;
};

/// A job's settings, derived once per job from the benchmark and the config
/// and shared by the run path and the config-key computation (the two must
/// agree, or the ledger identity of a run would drift from the key its
/// artifacts are cached under). Fast mode shrinks every budget for unit
/// tests.
struct NormalizedConfig {
  PipelineConfig cfg;
  PacSettings pac;
  DdpgConfig ddpg;
  EnvConfig env;
  int episodes = 0;       // RL training budget
  int eval_episodes = 0;  // noise-free RL evaluation rollouts
  ValidationConfig validation;
};

NormalizedConfig normalize_config(const Benchmark& benchmark,
                                  const PipelineConfig& config) {
  const bool fast = config.fast_mode;
  const auto steps =
      static_cast<std::size_t>(benchmark.rl.steps_per_episode);
  NormalizedConfig job{
      config,
      benchmark.pac,
      DdpgConfig{benchmark.hidden_layers, fast ? 200u : 1000u},
      EnvConfig{benchmark.rl.dt, fast ? std::min<std::size_t>(steps, 80)
                                      : steps},
      (config.rl_episodes >= 0) ? config.rl_episodes : benchmark.rl.episodes,
      fast ? 5 : 25,
      fast ? ValidationConfig{500, 5, 500} : ValidationConfig{}};
  if (fast) {
    job.episodes = std::min(job.episodes, 20);
    if (job.cfg.pac_fit.max_samples == 0) job.cfg.pac_fit.max_samples = 2000;
    job.pac.max_degree = std::min(job.pac.max_degree, 3);
  }
  return job;
}

/// The run-identity key: the RL stage key for full runs, the
/// benchmark+seed digest for from-law runs (no RL stage).
std::uint64_t config_key_of(const Benchmark& benchmark,
                            const NormalizedConfig& job, bool from_law) {
  if (from_law) {
    Fnv1a identity;
    hash_append(identity, benchmark);
    hash_append(identity, job.cfg.seed);
    return identity.digest();
  }
  return rl_stage_key(benchmark, job.cfg.seed, job.ddpg, job.env,
                      job.episodes, job.eval_episodes);
}

/// Final verdict: VERIFIED on success; the stop reason (CANCELLED /
/// DEADLINE) when the job was asked to stop; UNVERIFIED otherwise. A
/// stopped run is inconclusive by definition, so the stop reason wins over
/// whatever partial failure the preemption left behind.
void stamp_verdict(SynthesisResult& result, const JobControl* control) {
  if (result.success) {
    result.verdict = "VERIFIED";
    return;
  }
  if (control != nullptr) {
    const JobControl::StopReason reason = control->stop_reason();
    if (reason != JobControl::StopReason::kNone) {
      result.verdict = to_string(reason);
      return;
    }
  }
  result.verdict = "UNVERIFIED";
}

/// The one stage runner. Each stage opens its span and stopwatch here,
/// loads its payload from the cache or computes it and then stores it
/// unless the job was stopped (a preempted payload is partial, and caching
/// it would poison warm runs), and adopts the payload into the result.
/// Returns false when the job was stopped before or during the stage.
struct StageRunner {
  StageCache* cache;  // null when caching is off
  const JobControl* control;
  SynthesisResult& result;

  /// Stage-boundary stop gate: when the job control has a stop pending,
  /// mark the result as preempted at `stage` and return true. The
  /// CANCELLED / DEADLINE verdict itself is stamped once, at the end.
  bool preempted(const char* stage) const {
    if (!stop_requested(control)) return false;
    result.success = false;
    result.failure_stage = stage;
    result.failure_message = std::string("job preempted at the ") + stage +
                             " stage (cancelled or deadline expired)";
    return true;
  }

  template <class Payload, class Compute, class Adopt>
  bool run(const char* stage, std::uint64_t key, StageCounters& counters,
           double& seconds, Compute&& compute, Adopt&& adopt) const {
    if (preempted(stage)) return false;
    TraceSpan span(std::string("stage.") + stage);
    Stopwatch sw;
    std::optional<Payload> payload;
    if (cache != nullptr) payload = cache->load<Payload>(key, counters);
    if (payload.has_value()) {
      log_info("pipeline: ", stage, " stage from cache");
    } else {
      payload = compute();
      if (cache != nullptr && !stop_requested(control))
        cache->store(key, result.benchmark, *payload, counters);
    }
    adopt(std::move(*payload));
    seconds = sw.seconds();
    return !preempted(stage);
  }
};

/// Stage 3 as one barrier ladder (Section 4's lambda strategies across
/// Section 5's surrogate degrees). Rungs: the PAC-selected surrogate; the
/// other surrogates of the Algorithm-1 sweep, highest degree first, for
/// single-control systems (a lower-degree surrogate both shrinks the SOS
/// program and often smooths the closed loop), each under lambda_strategy;
/// then the alternating (BMI) schedule on the primary surrogate, which
/// regularly rescues instances where every fixed-lambda program stalls,
/// unless lambda_strategy already is alternating.
BarrierStagePayload barrier_ladder(const Ccds& sys,
                                   const SynthesisResult& result,
                                   const BarrierConfig& config) {
  std::vector<BarrierStagePayload> candidates(1);
  candidates[0].controller = result.controller;
  candidates[0].pac_model = result.pac.model;
  if (sys.num_controls == 1) {
    for (auto it = result.pac.per_degree.rbegin();
         it != result.pac.per_degree.rend(); ++it) {
      if (it->degree == result.pac.model.degree) continue;
      BarrierStagePayload& c = candidates.emplace_back();
      c.controller = {it->poly * sys.control_bound};
      c.pac_model = *it;
    }
  }
  std::vector<BarrierRung> rungs;
  for (const BarrierStagePayload& c : candidates)
    rungs.push_back({sys.closed_loop(c.controller), config.lambda_strategy});
  if (config.lambda_strategy != LambdaStrategy::kAlternating) {
    rungs.push_back({rungs.front().closed_field, LambdaStrategy::kAlternating});
    candidates.push_back(candidates.front());
  }
  std::size_t rung = 0;
  BarrierResult barrier = synthesize_barrier_ladder(sys, rungs, config, &rung);
  candidates[rung].barrier = std::move(barrier);
  return std::move(candidates[rung]);
}

/// Stages 1-4 of one job; `external_law` non-null stands in for the
/// trained DNN and skips stage 1. Stage keys chain from `config_key`.
void run_stages(const Benchmark& benchmark, const ControlLaw* external_law,
                const NormalizedConfig& job, std::uint64_t config_key,
                const StageRunner& runner) {
  SynthesisResult& result = runner.result;
  const Ccds& sys = benchmark.ccds;
  const PipelineConfig& cfg = job.cfg;

  // ---- Stage 1: DDPG training of the auxiliary DNN controller, unless the
  // artifact store already holds the trained actor for this exact
  // (benchmark content, config slice, seed, format version) key.
  ControlLaw law;
  if (external_law != nullptr) {
    result.dnn_structure = "(external law)";
    law = *external_law;
  } else {
    Rng rng(cfg.seed);
    if (!runner.run<RlStagePayload>(
            "rl", config_key, result.cache.rl, result.rl_seconds,
            [&] {
              ControlEnv env(sys, job.env);
              DdpgAgent agent(sys.num_states, sys.num_controls, job.ddpg,
                              rng);
              agent.train(env, job.episodes, rng);
              RlStagePayload p;
              p.eval = agent.evaluate(env, job.eval_episodes, rng);
              p.actor = agent.actor();
              p.dnn_structure = p.actor.structure_string();
              log_info("pipeline: RL eval safety rate ", p.eval.safety_rate);
              return p;
            },
            [&](RlStagePayload p) {
              result.dnn_structure = std::move(p.dnn_structure);
              result.rl_eval = p.eval;
              law = control_law_from_actor(p.actor, sys.control_bound);
            }))
      return;
  }

  // ---- Stage 2: PAC polynomial approximation (Algorithm 1).
  // The approximation target is the *normalized* DNN output in [-1, 1]^m --
  // exactly what the paper's tanh-output actors emit -- so the tabulated
  // errors e are comparable to Table 1/2 regardless of actuator scale. The
  // physical controller is bound * p(x).
  const double bound = sys.control_bound;
  // Thread job-level preemption into the solver layers. Never hashed: the
  // stage keys are identical with or without a control.
  PacFitOptions pac_fit = cfg.pac_fit;
  pac_fit.control = runner.control;
  const std::uint64_t pac_key = pac_stage_key(
      config_key, cfg.seed, job.pac, pac_fit, bound, sys.num_controls);
  if (!runner.run<PacStagePayload>(
          "pac", pac_key, result.cache.pac, result.pac_seconds,
          [&] {
            Rng rng(cfg.seed + 1000);
            const auto vec_fn = [&law, bound](const Vec& x) {
              Vec u = law(x);
              u /= bound;
              return u;
            };
            const PacVectorResult pac_vec = pac_approximate_vector(
                vec_fn, sys.num_controls, sys.domain, job.pac, rng, pac_fit);
            PacStagePayload p{pac_vec.per_channel.front(), {}, false};
            for (const PacModel& m : pac_vec.models) {
              p.controller.push_back(m.poly * bound);
              p.degraded = p.degraded || !m.pac_valid;
            }
            // Algorithm 1 failed to reach tau: proceed with the best model
            // anyway (verification decides).
            if (!pac_vec.success)
              log_info("pipeline: PAC stage did not reach tau; continuing "
                       "with best fit");
            return p;
          },
          [&](PacStagePayload p) {
            result.pac = std::move(p.pac);
            result.controller = std::move(p.controller);
            result.pac_degraded = p.degraded;
          }))
    return;
  if (result.pac_degraded) {
    log_info("pipeline[", benchmark.name,
             "]: PAC guarantee withdrawn (least-squares fallback in use); "
             "any verdict rests on verification + validation alone");
  }

  // ---- Stage 3: barrier-certificate generation over the whole ladder.
  BarrierConfig barrier_cfg = cfg.barrier;
  barrier_cfg.seed = cfg.seed + 2000;
  barrier_cfg.control = runner.control;  // preempts mid-interior-point
  const std::uint64_t barrier_key = barrier_stage_key(pac_key, barrier_cfg);
  if (!runner.run<BarrierStagePayload>(
          "barrier", barrier_key, result.cache.barrier,
          result.barrier_seconds,
          [&] { return barrier_ladder(sys, result, barrier_cfg); },
          [&](BarrierStagePayload p) {
            result.barrier = std::move(p.barrier);
            result.controller = std::move(p.controller);
            result.pac.model = std::move(p.pac_model);
          }))
    return;
  if (!result.barrier.success) {
    result.failure_stage = "barrier";
    result.failure_message = "barrier ladder found no certificate: " +
                             result.barrier.failure_reason;
    return;
  }

  // ---- Stage 4: independent validation.
  const std::uint64_t validation_key =
      validation_stage_key(barrier_key, cfg.seed, job.validation);
  if (!runner.run<ValidationStagePayload>(
          "validation", validation_key, result.cache.validation,
          result.validation_seconds,
          [&] {
            Rng rng(cfg.seed + 3000);
            return ValidationStagePayload{validate_barrier(
                sys, result.controller, result.barrier.barrier,
                result.barrier.lambda, barrier_cfg.rho, job.validation, rng)};
          },
          [&](ValidationStagePayload p) {
            result.validation = std::move(p.report);
          }))
    return;
  if (!result.validation.passed) {
    result.failure_stage = "validation";
    const ConditionCheck* failed = first_failure(result.validation.conditions);
    result.failure_message =
        "independent numeric validation rejected the certificate: " +
        (failed != nullptr
             ? describe(*failed)
             : std::to_string(result.validation.unsafe_rollouts) + " of " +
                   std::to_string(result.validation.rollouts) +
                   " rollouts from Theta reached X_u");
    return;
  }
  result.success = true;
}

}  // namespace

namespace detail {

std::uint64_t job_config_key(const Benchmark& benchmark,
                             const PipelineConfig& config) {
  return config_key_of(benchmark, normalize_config(benchmark, config),
                       /*from_law=*/false);
}

SynthesisResult run_synthesis_job(const Benchmark& benchmark,
                                  const ControlLaw* external_law,
                                  const PipelineConfig& config,
                                  const JobContext& ctx) {
  ObsRunScope obs_scope(config.obs);
  LogTagScope tag_scope(benchmark.name);
  TraceSpan run_span("synthesize:" + benchmark.name);
  Stopwatch total_sw;
  SynthesisResult result;
  result.benchmark = benchmark.name;
  result.threads_used = static_cast<int>(parallel_threads());

  const NormalizedConfig job = normalize_config(benchmark, config);
  const bool from_law = external_law != nullptr;
  // Computed whether or not the cache is on: the key doubles as the run's
  // configuration identity (config_key) in the ledger.
  const std::uint64_t config_key = config_key_of(benchmark, job, from_law);
  // The cache handle is either borrowed (a caller answering many jobs from
  // one store shares one handle) or owned by this run. A from-law key does
  // not cover the law, so such a run caches only through a handle its
  // caller hands it.
  std::optional<StageCache> own_cache;
  StageCache* cache = ctx.cache;
  if (cache == nullptr && !from_law) cache = &own_cache.emplace(job.cfg.store);
  if (cache != nullptr && !cache->enabled()) cache = nullptr;
  result.cache.enabled = cache != nullptr;

  // Never-crash: any exception escaping a stage (precondition violations
  // included) becomes a structured UNVERIFIED result. A pipeline that
  // aborts on one bad instance is useless for batch benchmarking and for
  // the fault-injection suite.
  try {
    run_stages(benchmark, external_law, job, config_key,
               StageRunner{cache, ctx.control, result});
  } catch (const std::exception& e) {
    log_info("pipeline[", benchmark.name, "]: stage threw (", e.what(),
             "); reporting UNVERIFIED");
    result.success = false;
    result.failure_stage = "exception";
    result.failure_message = e.what();
  }
  stamp_verdict(result, ctx.control);
  result.total_seconds = total_sw.seconds();
  if (metrics_enabled())
    result.metrics_json = MetricsRegistry::instance().json();
  // The ledger record (config or SCS_LEDGER) is observation only, written
  // after every numeric field is final; an I/O failure never fails the run.
  const std::string ledger = resolve_ledger_path(config.obs.ledger_path);
  if (!ledger.empty() &&
      !ledger_append(ledger, ledger_record(result, config_key, config.seed,
                                           ctx.source)))
    log_info("pipeline[", benchmark.name, "]: ledger append to '", ledger,
             "' failed");
  return result;
}

}  // namespace detail

SynthesisResult synthesize(const Benchmark& benchmark,
                           const PipelineConfig& config) {
  return detail::run_synthesis_job(benchmark, nullptr, config, JobContext{});
}

SynthesisResult synthesize_from_law(const Benchmark& benchmark,
                                    const ControlLaw& law,
                                    const PipelineConfig& config) {
  JobContext ctx;
  ctx.source = "synthesize_from_law";
  return detail::run_synthesis_job(benchmark, &law, config, ctx);
}

}  // namespace scs
