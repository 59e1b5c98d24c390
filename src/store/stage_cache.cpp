#include "store/stage_cache.hpp"

#include <cstdlib>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace scs {

namespace {

/// Mirror per-stage StageCounters events into the process-wide registry
/// (aggregated across stages and runs; the per-run split stays in
/// SynthesisResult.cache).
void count_store_event(const char* which) {
  if (!metrics_enabled()) return;
  MetricsRegistry::instance().counter(std::string("store.") + which).add();
}

/// Drop an instant marker on the trace timeline for each cache outcome, so
/// a Perfetto view shows where a run hit, missed, or healed a corrupt blob
/// relative to the stage spans. Observational only, like the counters.
void trace_store_event(const char* name) {
  if (!trace_enabled()) return;
  trace_instant(name);
}

/// Bumped whenever the barrier stage's answer changes for unchanged inputs,
/// so stores written before keep their payloads but no longer serve them.
/// The validation key chains from the barrier key, so it moves too; the RL
/// and PAC keys do not. Revision 1: the per-arm gate and stage 4 decide
/// Theorem 1 by the lambda-identity rule of barrier/independent_check, and
/// the validation payload stores its per-condition rows. Revision 2: SDP
/// runs stop at a checked infeasibility certificate (opt/sdp.hpp), which
/// moves the iterates the alternating BMI seeds from, and a failed ladder
/// names its last arm and how many of its programs were proven infeasible.
constexpr std::uint64_t kBarrierStageRevision = 2;

/// Seed every stage key with the serialization format version and a stage
/// tag, so a format bump orphans old blobs instead of misreading them and
/// two stages can never collide on a key.
Fnv1a stage_hasher(const char* stage_tag) {
  Fnv1a h;
  hash_append(h, static_cast<std::uint64_t>(kStoreFormatVersion));
  hash_append(h, stage_tag);
  return h;
}

// ---- Payload codecs, one encode/decode pair per stage.

void encode(BinaryWriter& w, const RlStagePayload& p) {
  write_mlp(w, p.actor);
  w.str(p.dnn_structure);
  write_eval_result(w, p.eval);
}

void decode(BinaryReader& r, RlStagePayload& p) {
  p.actor = read_mlp(r);
  p.dnn_structure = r.str();
  p.eval = read_eval_result(r);
}

void encode_polys(BinaryWriter& w, const std::vector<Polynomial>& polys) {
  w.u64(polys.size());
  for (const Polynomial& p : polys) write_polynomial(w, p);
}

std::vector<Polynomial> decode_polys(BinaryReader& r) {
  std::vector<Polynomial> polys;
  const std::uint64_t count = r.u64();
  for (std::uint64_t k = 0; k < count; ++k)
    polys.push_back(read_polynomial(r));
  return polys;
}

void encode(BinaryWriter& w, const PacStagePayload& p) {
  write_pac_result(w, p.pac);
  encode_polys(w, p.controller);
  w.boolean(p.degraded);
}

void decode(BinaryReader& r, PacStagePayload& p) {
  p.pac = read_pac_result(r);
  p.controller = decode_polys(r);
  p.degraded = r.boolean();
}

void encode(BinaryWriter& w, const BarrierStagePayload& p) {
  write_barrier_result(w, p.barrier);
  encode_polys(w, p.controller);
  write_pac_model(w, p.pac_model);
}

void decode(BinaryReader& r, BarrierStagePayload& p) {
  p.barrier = read_barrier_result(r);
  p.controller = decode_polys(r);
  p.pac_model = read_pac_model(r);
}

void encode(BinaryWriter& w, const ValidationStagePayload& p) {
  write_validation_report(w, p.report);
}

void decode(BinaryReader& r, ValidationStagePayload& p) {
  p.report = read_validation_report(r);
}

}  // namespace

std::string resolve_cache_dir(const StoreConfig& config) {
  if (config.mode == StoreConfig::Mode::kOff) return {};
  const char* env_off = std::getenv("SCS_CACHE");
  if (config.mode == StoreConfig::Mode::kAuto && env_off != nullptr &&
      std::string(env_off) == "off")
    return {};
  if (!config.cache_dir.empty()) return config.cache_dir;
  const char* env_dir = std::getenv("SCS_CACHE_DIR");
  if (env_dir != nullptr && *env_dir != '\0') return env_dir;
  return {};
}

std::uint64_t rl_stage_key(const Benchmark& benchmark, std::uint64_t seed,
                           const DdpgConfig& ddpg, const EnvConfig& env,
                           int episodes, int eval_episodes) {
  Fnv1a h = stage_hasher(RlStagePayload::kKind);
  // Only what the RL stage consumes: the system content plus the resolved
  // ddpg/env/budget arguments below. Benchmark fields that feed later
  // stages (pac settings, barrier degrees) are keyed by those stages, so
  // tuning them does not needlessly invalidate trained actors.
  hash_append(h, benchmark.name);
  hash_append(h, benchmark.ccds);
  hash_append(h, seed);
  hash_append(h, ddpg);
  hash_append(h, env);
  hash_append(h, episodes);
  hash_append(h, eval_episodes);
  return h.digest();
}

std::uint64_t pac_stage_key(std::uint64_t upstream_key, std::uint64_t seed,
                            const PacSettings& settings,
                            const PacFitOptions& options,
                            double control_bound, std::size_t num_controls) {
  Fnv1a h = stage_hasher(PacStagePayload::kKind);
  hash_append(h, upstream_key);
  hash_append(h, seed);
  hash_append(h, settings);
  hash_append(h, options);
  hash_append(h, control_bound);
  hash_append(h, static_cast<std::uint64_t>(num_controls));
  return h.digest();
}

std::uint64_t barrier_stage_key(std::uint64_t upstream_key,
                                const BarrierConfig& config) {
  Fnv1a h = stage_hasher(BarrierStagePayload::kKind);
  hash_append(h, kBarrierStageRevision);
  hash_append(h, upstream_key);
  hash_append(h, config);  // includes the stage seed (BarrierConfig::seed)
  return h.digest();
}

std::uint64_t validation_stage_key(std::uint64_t upstream_key,
                                   std::uint64_t seed,
                                   const ValidationConfig& config) {
  Fnv1a h = stage_hasher(ValidationStagePayload::kKind);
  hash_append(h, upstream_key);
  hash_append(h, seed);
  hash_append(h, config);
  return h.digest();
}

StageCache::StageCache(const StoreConfig& config) {
  const std::string dir = resolve_cache_dir(config);
  if (!dir.empty()) {
    store_ = std::make_shared<ArtifactStore>(dir);
    reader_lock_ = std::make_shared<ReaderLockGuard>(dir);
  }
}

template <class Payload>
std::optional<Payload> StageCache::load(std::uint64_t key, StageCounters& c) {
  if (store_ == nullptr) return std::nullopt;
  Stopwatch sw;
  std::optional<Payload> payload;
  const char* event = "store.miss";
  try {
    if (const auto bytes = store_->get(Payload::kKind, key)) {
      BinaryReader r(*bytes);
      decode(r, payload.emplace());
      event = "store.hit";
    }
  } catch (const StoreError& e) {
    // Present but unreadable or undecodable: count as corrupt *and* miss,
    // recompute.
    payload.reset();
    event = "store.corrupt";
    ++c.corrupt;
    count_store_event("corrupt");
    log_info("store: ", Payload::kKind, " blob ", hash_to_hex(key),
             " failed verification (", e.what(), "); recomputing");
  }
  c.load_seconds += sw.seconds();
  if (payload.has_value()) {
    ++c.hits;
    count_store_event("hits");
  } else {
    ++c.misses;
    count_store_event("misses");
  }
  trace_store_event(event);
  return payload;
}

template <class Payload>
void StageCache::store(std::uint64_t key, const std::string& benchmark,
                       const Payload& payload, StageCounters& c) {
  if (store_ == nullptr) return;
  Stopwatch sw;
  BinaryWriter w;
  encode(w, payload);
  try {
    store_->put(Payload::kKind, key, benchmark, w.bytes());
    ++c.stores;
    count_store_event("stores");
  } catch (const StoreError& e) {
    log_info("store: failed to persist ", Payload::kKind, " blob ",
             hash_to_hex(key), " (", e.what(), "); continuing uncached");
  }
  c.store_seconds += sw.seconds();
}

// The four stage payloads are the only instantiations.
template std::optional<RlStagePayload> StageCache::load(std::uint64_t,
                                                        StageCounters&);
template std::optional<PacStagePayload> StageCache::load(std::uint64_t,
                                                         StageCounters&);
template std::optional<BarrierStagePayload> StageCache::load(std::uint64_t,
                                                             StageCounters&);
template std::optional<ValidationStagePayload> StageCache::load(
    std::uint64_t, StageCounters&);
template void StageCache::store(std::uint64_t, const std::string&,
                                const RlStagePayload&, StageCounters&);
template void StageCache::store(std::uint64_t, const std::string&,
                                const PacStagePayload&, StageCounters&);
template void StageCache::store(std::uint64_t, const std::string&,
                                const BarrierStagePayload&, StageCounters&);
template void StageCache::store(std::uint64_t, const std::string&,
                                const ValidationStagePayload&, StageCounters&);

}  // namespace scs
