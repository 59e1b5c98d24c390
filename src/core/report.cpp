#include "core/report.hpp"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <map>
#include <sstream>

#include "obs/json_writer.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace scs {

namespace {
std::string fmt_double(double v, int precision) {
  std::ostringstream os;
  os << std::setprecision(precision) << v;
  return os.str();
}
}  // namespace

std::string format_table1(const PacResult& pac, double tau) {
  std::ostringstream os;
  os << std::left << std::setw(4) << "d" << std::setw(10) << "eta"
     << std::setw(10) << "eps" << std::setw(10) << "K" << std::setw(12) << "e"
     << std::setw(12) << "delta_e" << std::setw(8) << "tau" << '\n';
  // One row per degree: the last attempt at that degree (converged or final).
  int last_degree = 0;
  const PacTraceRow* row_for_degree = nullptr;
  const auto flush = [&]() {
    if (row_for_degree == nullptr) return;
    const PacTraceRow& r = *row_for_degree;
    os << std::left << std::setw(4) << r.degree << std::setw(10) << r.eta
       << std::setw(10) << r.eps << std::setw(10) << r.samples_used
       << std::setw(12) << fmt_double(r.error, 6) << std::setw(12)
       << fmt_double(r.delta_e, 2) << std::setw(8) << tau << '\n';
  };
  for (const auto& r : pac.trace) {
    if (r.degree != last_degree) {
      flush();
      last_degree = r.degree;
    }
    row_for_degree = &r;
  }
  flush();
  return os.str();
}

std::string table2_header() {
  std::ostringstream os;
  os << std::left << std::setw(7) << "Bench" << std::setw(5) << "n_x"
     << std::setw(5) << "d_f" << std::setw(17) << "DNN" << std::setw(10)
     << "eps" << std::setw(8) << "eta" << std::setw(9) << "K" << std::setw(11)
     << "e" << std::setw(5) << "d_p" << std::setw(5) << "d_B" << std::setw(10)
     << "T_p(s)" << std::setw(11) << "BC Struc." << std::setw(10) << "T_n(s)";
  return os.str();
}

std::string table2_row(const Benchmark& benchmark,
                       const SynthesisResult& result,
                       const NnControllerResult* baseline) {
  std::ostringstream os;
  os << std::left << std::setw(7) << benchmark.name << std::setw(5)
     << benchmark.ccds.num_states << std::setw(5)
     << benchmark.ccds.field_degree() << std::setw(17) << result.dnn_structure;
  if (result.success || !result.controller.empty()) {
    const PacModel& m = result.pac.model;
    os << std::setw(10) << fmt_double(m.eps, 3) << std::setw(8) << m.eta
       << std::setw(9) << m.samples << std::setw(11) << fmt_double(m.error, 4)
       << std::setw(5) << m.degree;
    if (result.barrier.success) {
      os << std::setw(5) << result.barrier.degree << std::setw(10)
         << fmt_double(result.barrier.seconds, 4);
    } else {
      os << std::setw(5) << "x" << std::setw(10) << "x";
    }
  } else {
    os << std::setw(10) << "x" << std::setw(8) << "x" << std::setw(9) << "x"
       << std::setw(11) << "x" << std::setw(5) << "x" << std::setw(5) << "x"
       << std::setw(10) << "x";
  }
  if (baseline == nullptr) {
    os << std::setw(11) << "-" << std::setw(10) << "-";
  } else if (baseline->verified) {
    os << std::setw(11) << baseline->barrier_structure << std::setw(10)
       << fmt_double(baseline->verify_seconds, 4);
  } else {
    os << std::setw(11) << "x" << std::setw(10) << "x";
  }
  return os.str();
}

std::string stage_timings_json(const SynthesisResult& result) {
  JsonWriter w;
  w.begin_object();
  w.key("benchmark").value(result.benchmark);
  w.key("verdict").value(result.verdict);
  // Failure attribution rides along so a BENCH_*.json from an UNVERIFIED
  // run is self-explaining (both empty on success).
  w.key("failure_stage").value(result.failure_stage);
  w.key("failure_message").value(result.failure_message);
  w.key("rl_seconds").value(result.rl_seconds, 6);
  w.key("pac_seconds").value(result.pac_seconds, 6);
  w.key("barrier_seconds").value(result.barrier_seconds, 6);
  w.key("validation_seconds").value(result.validation_seconds, 6);
  w.key("total_seconds").value(result.total_seconds, 6);
  // Width the run recorded at synthesize() entry; a default-constructed
  // result (threads_used == 0) falls back to the current pool width.
  const int threads = result.threads_used > 0
                          ? result.threads_used
                          : static_cast<int>(parallel_threads());
  w.key("threads").value(threads);
  if (result.cache.enabled) w.key("cache").raw(cache_stats_json(result.cache));
  w.end_object();
  return w.str();
}

namespace {
void append_stage_counters(JsonWriter& w, const char* stage,
                           const StageCounters& c) {
  w.key(stage).begin_object();
  w.key("hits").value(static_cast<std::int64_t>(c.hits));
  w.key("misses").value(static_cast<std::int64_t>(c.misses));
  w.key("stores").value(static_cast<std::int64_t>(c.stores));
  w.key("corrupt").value(static_cast<std::int64_t>(c.corrupt));
  w.key("load_seconds").value(c.load_seconds, 6);
  w.key("store_seconds").value(c.store_seconds, 6);
  w.end_object();
}
}  // namespace

std::string cache_stats_json(const CacheStats& stats) {
  JsonWriter w;
  w.begin_object();
  w.key("enabled").value(stats.enabled);
  append_stage_counters(w, "rl", stats.rl);
  append_stage_counters(w, "pac", stats.pac);
  append_stage_counters(w, "barrier", stats.barrier);
  append_stage_counters(w, "validation", stats.validation);
  w.end_object();
  return w.str();
}

LedgerRecord ledger_record(const SynthesisResult& result,
                           std::uint64_t config_key, std::uint64_t seed,
                           const std::string& source) {
  LedgerRecord r;
  r.kind = "synthesis";
  r.source = source;
  r.config_key = hash_to_hex(config_key);
  r.seed = seed;
  r.threads = result.threads_used > 0 ? result.threads_used
                                      : static_cast<int>(parallel_threads());
  r.benchmark = result.benchmark;
  r.verdict = result.verdict;
  r.failure_stage = result.failure_stage;
  const PacModel& m = result.pac.model;
  r.pac_valid = m.pac_valid;
  r.pac_eps = m.eps;
  r.pac_error = m.error;
  r.pac_degree = m.degree;
  r.pac_samples = m.samples;
  // 0 = no certificate; the verdict field already says why.
  r.barrier_degree = result.barrier.success ? result.barrier.degree : 0;
  r.rl_seconds = result.rl_seconds;
  r.pac_seconds = result.pac_seconds;
  r.barrier_seconds = result.barrier_seconds;
  r.validation_seconds = result.validation_seconds;
  r.total_seconds = result.total_seconds;
  r.json_dropped = json_nonfinite_dropped();
  r.metrics_json = result.metrics_json;
  return r;
}

std::vector<SpanProfileRow> trace_profile(const JsonValue& trace) {
  const JsonValue* events = trace.find("traceEvents");
  if (events == nullptr || !events->is_array())
    throw JsonParseError("trace has no traceEvents array", 0);
  struct Span {
    double begin, end;  // microseconds
    std::string name;
    double children = 0.0;
  };
  std::map<std::pair<std::int64_t, std::int64_t>, std::vector<Span>> threads;
  for (const JsonValue& e : events->items) {
    const JsonValue* ph = e.find("ph");
    if (ph == nullptr || ph->string_or("") != "X") continue;
    const auto num = [&e](const char* key) {
      const JsonValue* v = e.find(key);
      return v != nullptr ? v->number_or(0.0) : 0.0;
    };
    const JsonValue* name = e.find("name");
    std::string key = name != nullptr ? name->string_or("?") : "?";
    key = key.substr(0, key.find(':'));
    const double ts = num("ts");
    threads[{static_cast<std::int64_t>(num("pid")),
             static_cast<std::int64_t>(num("tid"))}]
        .push_back({ts, ts + num("dur"), std::move(key)});
  }
  // Timestamps are microseconds with nanosecond fractions; a child may end
  // a rounding step after its parent.
  constexpr double kSlackUs = 1e-3;
  std::map<std::string, SpanProfileRow> by_name;
  for (auto& [thread, spans] : threads) {
    // Parents first: by start, and the longer of two spans that start
    // together.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.begin != b.begin ? a.begin < b.begin : a.end > b.end;
    });
    std::vector<Span*> open;
    for (Span& span : spans) {
      while (!open.empty() && open.back()->end <= span.begin + kSlackUs)
        open.pop_back();
      if (!open.empty() && span.end <= open.back()->end + kSlackUs)
        open.back()->children += span.end - span.begin;
      open.push_back(&span);
    }
    for (const Span& span : spans) {
      SpanProfileRow& row = by_name[span.name];
      row.name = span.name;
      row.count += 1;
      row.inclusive_s += (span.end - span.begin) * 1e-6;
      row.self_s +=
          std::max(0.0, span.end - span.begin - span.children) * 1e-6;
    }
  }
  std::vector<SpanProfileRow> rows;
  for (auto& [name, row] : by_name) rows.push_back(std::move(row));
  std::stable_sort(rows.begin(), rows.end(),
                   [](const SpanProfileRow& a, const SpanProfileRow& b) {
                     return a.self_s > b.self_s;
                   });
  return rows;
}

std::string format_trace_profile(const std::vector<SpanProfileRow>& rows) {
  std::size_t width = 4;
  for (const SpanProfileRow& row : rows)
    width = std::max(width, row.name.size());
  std::ostringstream os;
  os << std::left << std::setw(static_cast<int>(width)) << "span" << std::right
     << std::setw(9) << "count" << std::setw(14) << "inclusive_s"
     << std::setw(12) << "self_s" << "\n"
     << std::fixed << std::setprecision(4);
  for (const SpanProfileRow& row : rows)
    os << std::left << std::setw(static_cast<int>(width)) << row.name
       << std::right << std::setw(9) << row.count << std::setw(14)
       << row.inclusive_s << std::setw(12) << row.self_s << "\n";
  return os.str();
}

}  // namespace scs
