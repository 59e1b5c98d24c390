// Spool client for synthesize_server.
//
//   ./serve_cli --spool <dir> submit C1 [--seed <n>] [--fast]
//               [--episodes <n>] [--priority <p>] [--deadline <s>]
//               [--id <name>] [--wait [--timeout <s>]]
//   ./serve_cli --spool <dir> status [--json]
//   ./serve_cli --spool <dir> result <id> [--wait [--timeout <s>]]
//   ./serve_cli --spool <dir> cancel <id>
//   ./serve_cli --spool <dir> drain
//
// submit drops one request file into <spool>/inbox/ (atomic write, so the
// server never reads a half-written request). The request id defaults to
// "<benchmark>-s<seed>"; the result lands at <spool>/results/<id>.json.
// When the server's bounded queue is full, submit says so -- the request
// is buffered in the inbox (nothing is lost) and the server's suggested
// retry-after is printed instead of a bare failure.
// status renders <spool>/status.json (schema 2) human-readably: queue
// occupancy, in-flight count, the counter set, and latency quantiles
// (--json for the raw document). cancel drops a marker under
// <spool>/ctl/cancel/ -- the server cooperatively stops the job, which
// finishes with verdict CANCELLED. drain touches <spool>/ctl/drain -- the
// server finishes queued jobs, sweeps results, and exits.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/json_reader.hpp"
#include "serve/request.hpp"
#include "serve/spool.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace scs;

void print_usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --spool <dir> <command> [options]\n"
      << "commands:\n"
      << "  submit <benchmark> [--seed <n>] [--fast] [--episodes <n>]\n"
      << "         [--priority <p>] [--deadline <s>] [--id <name>]\n"
      << "         [--wait [--timeout <s>]]\n"
      << "  status [--json]\n"
      << "  result <id> [--wait [--timeout <s>]]\n"
      << "  cancel <id>\n"
      << "  drain\n";
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::string fmt_latency(const JsonValue* lat, const char* name) {
  const JsonValue* h = lat != nullptr ? lat->find(name) : nullptr;
  if (h == nullptr) return "-";
  const std::int64_t count = h->find("count") ? h->find("count")->int_or(0) : 0;
  if (count == 0) return "(none observed)";
  char buf[96];
  std::snprintf(buf, sizeof buf, "p50 %lld / p90 %lld / p99 %lld  (n=%lld)",
                static_cast<long long>(h->find("p50")->int_or(0)),
                static_cast<long long>(h->find("p90")->int_or(0)),
                static_cast<long long>(h->find("p99")->int_or(0)),
                static_cast<long long>(count));
  return buf;
}

std::uint64_t counter_of(const JsonValue& doc, const char* name) {
  const JsonValue* counters = doc.find("counters");
  const JsonValue* v = counters != nullptr ? counters->find(name) : nullptr;
  return v != nullptr ? static_cast<std::uint64_t>(v->int_or(0)) : 0;
}

/// Render status.json (schema 2) for humans. Unknown schemas fall back to
/// the raw document rather than misreading fields.
int print_status(const std::string& text, bool raw) {
  if (raw) {
    std::cout << text << "\n";
    return 0;
  }
  JsonValue doc;
  if (!json_try_parse(text, &doc) || !doc.is_object() ||
      (doc.find("schema") ? doc.find("schema")->int_or(0) : 0) !=
          kStatusSchemaVersion) {
    std::cout << text << "\n";
    return 0;
  }
  const auto u64 = [&doc](const char* key) -> std::uint64_t {
    const JsonValue* v = doc.find(key);
    return v != nullptr ? static_cast<std::uint64_t>(v->int_or(0)) : 0;
  };
  const std::uint64_t depth = u64("queue_depth");
  const std::uint64_t cap = u64("queue_capacity");
  const bool draining =
      doc.find("draining") != nullptr && doc.find("draining")->bool_or(false);
  std::cout << "instance  "
            << (doc.find("instance") ? doc.find("instance")->string_or("?")
                                     : "?")
            << (draining ? "  [draining]" : "") << "\n";
  std::cout << "queue     " << depth << "/" << cap << ", " << u64("in_flight")
            << " in flight, " << u64("pending") << " pending sweep\n";
  std::cout << "traffic   submitted " << counter_of(doc, "submitted")
            << " | cold " << counter_of(doc, "cold_runs") << " | warm "
            << counter_of(doc, "warm_hits") << " | dup "
            << counter_of(doc, "duplicates") << " | rejected "
            << counter_of(doc, "rejected") << " | cancelled "
            << counter_of(doc, "cancelled") << " | overflow "
            << counter_of(doc, "overflow") << "\n";
  std::cout << "spool     ingested " << u64("ingested")
            << ", results written " << u64("results_written") << "\n";
  const JsonValue* lat = doc.find("latency");
  std::cout << "latency   queue_wait_ms  " << fmt_latency(lat, "queue_wait_ms")
            << "\n"
            << "          run_ms         " << fmt_latency(lat, "run_ms")
            << "\n"
            << "          warm_hit_us    " << fmt_latency(lat, "warm_hit_us")
            << "\n";
  if (!draining && cap > 0 && depth >= cap) {
    const double retry = doc.find("retry_after_seconds")
                             ? doc.find("retry_after_seconds")->number_or(1.0)
                             : 1.0;
    std::cout << "backpressure: queue is FULL -- new submits stay buffered "
                 "in the inbox; retry after ~"
              << retry << "s\n";
  }
  const JsonValue* jobs = doc.find("jobs");
  if (jobs != nullptr && jobs->is_array() && !jobs->items.empty()) {
    std::cout << "jobs\n";
    for (const JsonValue& j : jobs->items) {
      std::cout << "  " << (j.find("id") ? j.find("id")->string_or("?") : "?")
                << "  " << (j.find("state") ? j.find("state")->string_or("?")
                                            : "?")
                << "  "
                << (j.find("benchmark") ? j.find("benchmark")->string_or("?")
                                        : "?");
      const std::string verdict =
          j.find("verdict") ? j.find("verdict")->string_or("") : "";
      if (!verdict.empty()) std::cout << "  " << verdict;
      std::cout << "\n";
    }
  }
  return 0;
}

int print_result_file(const SpoolLayout& layout, const std::string& id,
                      bool wait, double timeout_seconds) {
  const std::string path = layout.results() + "/" + id + ".json";
  Stopwatch clock;
  for (;;) {
    std::string text;
    if (read_file(path, &text)) {
      std::cout << text << "\n";
      // Exit 0 on VERIFIED, 1 otherwise -- scriptable like synthesize_cli.
      return text.find("\"verdict\":\"VERIFIED\"") != std::string::npos ? 0 : 1;
    }
    if (!wait) {
      std::cerr << "no result yet at " << path << " (use --wait)\n";
      return 3;
    }
    if (timeout_seconds > 0.0 && clock.seconds() > timeout_seconds) {
      std::cerr << "timed out waiting for " << path << "\n";
      return 3;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string spool_root, command;
  std::vector<std::string> rest;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--spool") {
      if (i + 1 >= argc) {
        std::cerr << "--spool needs a directory\n";
        return 2;
      }
      spool_root = argv[++i];
    } else if (command.empty()) {
      command = arg;
    } else {
      rest.push_back(arg);
    }
  }
  if (spool_root.empty() || command.empty()) {
    print_usage(argv[0]);
    return 2;
  }
  const SpoolLayout layout{spool_root};

  if (command == "status") {
    std::string text;
    if (!read_file(layout.status_file(), &text)) {
      std::cerr << "no status file at " << layout.status_file()
                << " (is the server running?)\n";
      return 3;
    }
    bool raw = false;
    for (const std::string& r : rest)
      if (r == "--json") raw = true;
    return print_status(text, raw);
  }

  if (command == "cancel") {
    std::string id;
    for (const std::string& r : rest)
      if (id.empty() && r[0] != '-') id = r;
    if (id.empty()) {
      print_usage(argv[0]);
      return 2;
    }
    const std::string marker = layout.cancel_dir() + "/" + id;
    if (!atomic_write_file(marker, "cancel\n")) {
      std::cerr << "cannot write " << marker
                << " (is the spool initialized by a current server?)\n";
      return 1;
    }
    std::cout << "cancel requested for " << id << " via " << marker << "\n";
    return 0;
  }

  if (command == "drain") {
    if (!atomic_write_file(layout.drain_file(), "drain\n")) {
      std::cerr << "cannot write " << layout.drain_file() << "\n";
      return 1;
    }
    std::cout << "drain requested via " << layout.drain_file() << "\n";
    return 0;
  }

  bool wait = false;
  double timeout_seconds = 0.0;

  if (command == "result") {
    std::string id;
    for (std::size_t i = 0; i < rest.size(); ++i) {
      if (rest[i] == "--wait")
        wait = true;
      else if (rest[i] == "--timeout" && i + 1 < rest.size())
        timeout_seconds = std::atof(rest[++i].c_str());
      else if (id.empty())
        id = rest[i];
    }
    if (id.empty()) {
      print_usage(argv[0]);
      return 2;
    }
    return print_result_file(layout, id, wait, timeout_seconds);
  }

  if (command != "submit") {
    print_usage(argv[0]);
    return 2;
  }

  JobRequest request;
  request.benchmark.clear();
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const std::string& arg = rest[i];
    const auto next = [&](const char* what) -> const char* {
      if (i + 1 >= rest.size()) {
        std::cerr << arg << " needs " << what << "\n";
        std::exit(2);
      }
      return rest[++i].c_str();
    };
    if (arg == "--seed")
      request.seed = std::strtoull(next("a number"), nullptr, 10);
    else if (arg == "--fast")
      request.fast_mode = true;
    else if (arg == "--episodes")
      request.rl_episodes = std::atoi(next("a count"));
    else if (arg == "--priority")
      request.priority = std::atoi(next("a number"));
    else if (arg == "--deadline")
      request.deadline_seconds = std::atof(next("a duration"));
    else if (arg == "--id")
      request.id = next("a name");
    else if (arg == "--wait")
      wait = true;
    else if (arg == "--timeout")
      timeout_seconds = std::atof(next("a duration"));
    else if (request.benchmark.empty())
      request.benchmark = arg;
    else {
      print_usage(argv[0]);
      return 2;
    }
  }
  if (request.benchmark.empty()) {
    print_usage(argv[0]);
    return 2;
  }
  if (request.id.empty())
    request.id = request.benchmark + "-s" + std::to_string(request.seed);

  // Unique inbox filename; the atomic write keeps half-written requests
  // invisible to the server.
  const std::string file = layout.inbox() + "/" + request.id + "-" +
                           std::to_string(::getpid()) + ".json";
  if (!atomic_write_file(file, job_request_json(request) + "\n")) {
    std::cerr << "cannot write " << file
              << " (did synthesize_server create the spool?)\n";
    return 1;
  }
  std::cout << "submitted " << request.id << " -> " << file << "\n";
  // Surface backpressure instead of failing silently later: when the
  // server's bounded queue is at capacity the request stays buffered in
  // the inbox (nothing is lost) and the server's retry-after applies.
  {
    std::string status_text;
    JsonValue doc;
    if (read_file(layout.status_file(), &status_text) &&
        json_try_parse(status_text, &doc) && doc.is_object()) {
      const std::int64_t depth =
          doc.find("queue_depth") ? doc.find("queue_depth")->int_or(0) : 0;
      const std::int64_t cap = doc.find("queue_capacity")
                                   ? doc.find("queue_capacity")->int_or(0)
                                   : 0;
      if (cap > 0 && depth >= cap) {
        const double retry =
            doc.find("retry_after_seconds")
                ? doc.find("retry_after_seconds")->number_or(1.0)
                : 1.0;
        std::cout << "note: server queue is full (" << depth << "/" << cap
                  << "); the request waits in the inbox overflow buffer -- "
                     "expect an extra ~"
                  << retry << "s before it is picked up\n";
      }
    }
  }
  if (!wait) return 0;
  return print_result_file(layout, request.id, true, timeout_seconds);
}
