#include "obs/ledger.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>

#include "obs/json_reader.hpp"
#include "obs/json_writer.hpp"

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace scs {

namespace {

std::mutex& ledger_mutex() {
  static std::mutex mu;
  return mu;
}

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

int process_id() {
#ifdef _WIN32
  return _getpid();
#else
  return static_cast<int>(getpid());
#endif
}

std::string next_run_id(std::int64_t ts_ms) {
  static std::atomic<std::uint64_t> seq{0};
  std::ostringstream os;
  os << ts_ms << '-' << process_id() << '-'
     << seq.fetch_add(1, std::memory_order_relaxed);
  return os.str();
}

/// First line of a small text file, trimmed ("" on failure).
std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::string line;
  std::getline(in, line);
  while (!line.empty() && (line.back() == '\r' || line.back() == '\n' ||
                           line.back() == ' '))
    line.pop_back();
  return line;
}

/// Sha that a packed-refs file records for `ref` ("" when absent). Lines
/// are "<sha> <ref>"; the '#' header and '^' peeled-tag lines are skipped.
std::string packed_ref_sha(const std::string& path, const std::string& ref) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '^') continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    std::string name = line.substr(space + 1);
    while (!name.empty() && (name.back() == '\r' || name.back() == ' '))
      name.pop_back();
    if (name == ref) return line.substr(0, space);
  }
  return {};
}

}  // namespace

std::string git_head_describe(const std::string& dir) {
  // Walk up a few levels looking for .git/HEAD; enough for "run from the
  // repo root or a build subdirectory", which is the only case we serve.
  std::string base = dir.empty() ? std::string(".") : dir;
  for (int depth = 0; depth < 6; ++depth) {
    const std::string head = read_first_line(base + "/.git/HEAD");
    if (!head.empty()) {
      constexpr std::string_view kRefPrefix = "ref: ";
      if (head.rfind(kRefPrefix, 0) == 0) {
        // A loose ref file wins; after `git gc` or `git pack-refs` the
        // branch lives only in packed-refs.
        const std::string ref = head.substr(kRefPrefix.size());
        const std::string sha = read_first_line(base + "/.git/" + ref);
        if (!sha.empty()) return sha;
        return packed_ref_sha(base + "/.git/packed-refs", ref);
      }
      return head;  // detached HEAD: already a sha
    }
    base += "/..";
  }
  return {};
}

std::string ledger_env_path() {
  const char* env = std::getenv("SCS_LEDGER");
  return (env != nullptr && *env != '\0') ? std::string(env) : std::string();
}

std::string resolve_ledger_path(const std::string& configured) {
  if (!configured.empty()) return configured;
  return ledger_env_path();
}

std::string ledger_record_json(const LedgerRecord& r) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(r.schema);
  w.key("kind").value(r.kind);
  w.key("run_id").value(r.run_id);
  w.key("source").value(r.source);
  w.key("timestamp_ms").value(r.timestamp_ms);
  w.key("git_head").value(r.git_head);
  w.key("config_key").value(r.config_key);
  w.key("seed").value(r.seed);
  w.key("threads").value(r.threads);
  if (r.kind == "synthesis") {
    w.key("benchmark").value(r.benchmark);
    w.key("verdict").value(r.verdict);
    w.key("failure_stage").value(r.failure_stage);
    w.key("pac_valid").value(r.pac_valid);
    w.key("pac_eps").value(r.pac_eps);
    w.key("pac_error").value(r.pac_error);
    w.key("pac_degree").value(r.pac_degree);
    w.key("pac_samples").value(r.pac_samples);
    w.key("barrier_degree").value(r.barrier_degree);
    w.key("rl_seconds").value(r.rl_seconds, 6);
    w.key("pac_seconds").value(r.pac_seconds, 6);
    w.key("barrier_seconds").value(r.barrier_seconds, 6);
    w.key("validation_seconds").value(r.validation_seconds, 6);
    w.key("total_seconds").value(r.total_seconds, 6);
    w.key("json_dropped").value(r.json_dropped);
    if (!r.metrics_json.empty()) w.key("metrics").raw(r.metrics_json);
  } else if (!r.values_json.empty()) {
    w.key("values").raw(r.values_json);
  }
  w.end_object();
  return w.str();
}

namespace {

bool parse_fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

/// Re-serialize a parsed JsonValue (for round-tripping the metrics/values
/// sub-objects back into the record's raw-JSON fields).
void write_value(JsonWriter& w, const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kNull: w.null(); break;
    case JsonValue::Type::kBool: w.value(v.boolean); break;
    case JsonValue::Type::kNumber: w.value(v.number); break;
    case JsonValue::Type::kString: w.value(v.string); break;
    case JsonValue::Type::kArray:
      w.begin_array();
      for (const JsonValue& item : v.items) write_value(w, item);
      w.end_array();
      break;
    case JsonValue::Type::kObject:
      w.begin_object();
      for (const auto& [k, member] : v.members) {
        w.key(k);
        write_value(w, member);
      }
      w.end_object();
      break;
  }
}

std::string reserialize(const JsonValue& v) {
  JsonWriter w;
  write_value(w, v);
  return w.str();
}

}  // namespace

bool ledger_record_parse(std::string_view line, LedgerRecord* out,
                         std::string* error) {
  JsonValue doc;
  std::string parse_error;
  if (!json_try_parse(line, &doc, &parse_error))
    return parse_fail(error, parse_error);
  if (!doc.is_object()) return parse_fail(error, "record is not an object");

  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_number())
    return parse_fail(error, "missing schema field");
  if (schema->int_or(0) != kLedgerSchemaVersion)
    return parse_fail(error, "unsupported schema version " +
                                 std::to_string(schema->int_or(0)));

  LedgerRecord r;
  r.schema = static_cast<int>(schema->int_or(0));
  const JsonValue* kind = doc.find("kind");
  if (kind == nullptr || !kind->is_string())
    return parse_fail(error, "missing kind field");
  r.kind = kind->string;
  if (r.kind != "synthesis" && r.kind != "bench")
    return parse_fail(error, "unknown record kind '" + r.kind + "'");

  const auto str = [&doc](const char* key) -> std::string {
    const JsonValue* v = doc.find(key);
    return v != nullptr ? v->string_or("") : std::string();
  };
  const auto num = [&doc](const char* key) -> double {
    const JsonValue* v = doc.find(key);
    return v != nullptr ? v->number_or(0.0) : 0.0;
  };

  r.run_id = str("run_id");
  r.source = str("source");
  r.timestamp_ms = static_cast<std::int64_t>(num("timestamp_ms"));
  r.git_head = str("git_head");
  r.config_key = str("config_key");
  r.seed = static_cast<std::uint64_t>(num("seed"));
  r.threads = static_cast<int>(num("threads"));
  if (r.run_id.empty()) return parse_fail(error, "missing run_id");

  if (r.kind == "synthesis") {
    const JsonValue* bench = doc.find("benchmark");
    const JsonValue* verdict = doc.find("verdict");
    if (bench == nullptr || !bench->is_string())
      return parse_fail(error, "synthesis record missing benchmark");
    if (verdict == nullptr || !verdict->is_string())
      return parse_fail(error, "synthesis record missing verdict");
    r.benchmark = bench->string;
    r.verdict = verdict->string;
    r.failure_stage = str("failure_stage");
    const JsonValue* pv = doc.find("pac_valid");
    r.pac_valid = pv != nullptr ? pv->bool_or(true) : true;
    r.pac_eps = num("pac_eps");
    r.pac_error = num("pac_error");
    r.pac_degree = static_cast<int>(num("pac_degree"));
    r.pac_samples = static_cast<std::uint64_t>(num("pac_samples"));
    r.barrier_degree = static_cast<int>(num("barrier_degree"));
    r.rl_seconds = num("rl_seconds");
    r.pac_seconds = num("pac_seconds");
    r.barrier_seconds = num("barrier_seconds");
    r.validation_seconds = num("validation_seconds");
    r.total_seconds = num("total_seconds");
    r.json_dropped = static_cast<std::uint64_t>(num("json_dropped"));
    if (const JsonValue* m = doc.find("metrics"); m != nullptr)
      r.metrics_json = reserialize(*m);
  } else {
    if (const JsonValue* v = doc.find("values"); v != nullptr)
      r.values_json = reserialize(*v);
  }
  if (out != nullptr) *out = std::move(r);
  return true;
}

bool ledger_append(const std::string& path, LedgerRecord record) {
  if (path.empty()) return false;
  if (record.timestamp_ms == 0) record.timestamp_ms = now_ms();
  if (record.run_id.empty()) record.run_id = next_run_id(record.timestamp_ms);
  if (record.git_head.empty()) {
    // Resolved once: every record of a process comes from the same tree.
    static const std::string head = git_head_describe();
    record.git_head = head;
  }
  std::string line = ledger_record_json(record);
  line += '\n';
  // One locked write of the fully formatted line (the log_line discipline):
  // in-process appenders serialize on the mutex; cross-process appenders
  // rely on O_APPEND (std::ios::app) making each single write atomic.
  std::lock_guard<std::mutex> lk(ledger_mutex());
  std::ofstream out(path, std::ios::app | std::ios::binary);
  if (!out) return false;
  out.write(line.data(), static_cast<std::streamsize>(line.size()));
  out.flush();
  return static_cast<bool>(out);
}

bool ledger_append_bench(const std::string& source,
                         const std::string& values_json,
                         const std::string& path) {
  const std::string target = resolve_ledger_path(path);
  if (target.empty()) return false;
  LedgerRecord r;
  r.kind = "bench";
  r.source = source;
  r.values_json = values_json;
  return ledger_append(target, std::move(r));
}

LedgerReadResult ledger_read(const std::string& path) {
  LedgerReadResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    result.errors.push_back("cannot open ledger file '" + path + "'");
    return result;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    LedgerRecord r;
    std::string error;
    if (ledger_record_parse(line, &r, &error)) {
      result.records.push_back(std::move(r));
    } else {
      ++result.skipped;
      result.errors.push_back("line " + std::to_string(line_no) + ": " +
                              error);
    }
  }
  return result;
}

}  // namespace scs
