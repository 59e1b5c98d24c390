// Synthesis-as-a-service daemon: watch a spool directory for JSONL job
// requests, dedupe them through the stage-cache key, run cold jobs on a
// bounded priority queue, and answer repeats from memory.
//
//   ./synthesize_server --spool /tmp/scs-spool --workers 2
//       --cache-dir /tmp/scs-cache --ledger runs.jsonl
//
// Clients drop request files into <spool>/inbox/ (see serve_cli);
// results appear as <spool>/results/<id>.json and <spool>/status.json is
// refreshed every poll. SIGTERM / SIGINT -- or touching <spool>/ctl/drain
// -- triggers a graceful drain: the inbox stops being ingested, queued
// jobs finish, every finished job is swept to results/, then the process
// exits 0.
//
// Options:
//   --spool <dir>     spool root (required)
//   --workers <n>     worker threads consuming the job queue (default 2)
//   --queue-cap <n>   bounded queue capacity; beyond it requests stay in
//                     the inbox as the overflow buffer (default 64)
//   --cache-dir <dir> artifact store shared by all jobs (enables the warm
//                     fast path across restarts; overrides SCS_CACHE_DIR)
//   --no-cache        disable the artifact store
//   --ledger <file>   per-job run-ledger records (source "serve" for cold
//                     runs, "serve-hit" for warm hits)
//   --poll-ms <n>     inbox poll interval (default 200)
//   --max-jobs <n>    exit after ingesting n requests (0 = run forever;
//                     used by tests and the CI smoke)
//   --idle-exit <s>   exit after s seconds with an empty inbox, no pending
//                     jobs, and nothing queued (0 = never; tests/CI)
//   --trace <file>    per-request Chrome trace: every span/instant of a
//                     request's lifecycle (spool ingest, queue wait, solve
//                     incl. race arms, cancellation, result write) carries
//                     its id as args.rid; written at drain
//   --instance <name> label stamped into status.json / the ledger daemon
//                     summary (default: the spool directory name)
//   --no-metrics      disable the metrics registry (on by default here:
//                     the daemon is the thing the exposition files
//                     observe; status.json latency quantiles and
//                     metrics.txt need it)
//
// Live exposition: every poll refreshes <spool>/status.json (schema 2 --
// queue depth/capacity, in-flight, counters, latency quantiles) and
// <spool>/metrics.txt (Prometheus text). At drain the daemon appends a
// "serve_daemon" summary record to the ledger -- the per-instance input
// for `report_cli fleet`.
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "serve/spool.hpp"
#include "util/stopwatch.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

void print_usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --spool <dir> [--workers <n>] [--queue-cap <n>]\n"
            << "       [--cache-dir <dir> | --no-cache] [--ledger <file>]\n"
            << "       [--poll-ms <n>] [--max-jobs <n>] [--idle-exit <s>]\n"
            << "       [--trace <file>] [--instance <name>] [--no-metrics]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scs;
  std::string spool_root;
  ServerConfig config;
  int poll_ms = 200;
  std::uint64_t max_jobs = 0;
  double idle_exit_seconds = 0.0;
  std::string trace_path;
  std::string instance;
  bool metrics_on = true;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs " << what << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--spool") {
      spool_root = next("a directory");
    } else if (arg == "--workers") {
      config.workers = std::atoi(next("a count"));
    } else if (arg == "--queue-cap") {
      config.queue_capacity =
          static_cast<std::size_t>(std::atoll(next("a count")));
    } else if (arg == "--cache-dir") {
      config.store.mode = StoreConfig::Mode::kOn;
      config.store.cache_dir = next("a directory");
    } else if (arg == "--no-cache") {
      config.store.mode = StoreConfig::Mode::kOff;
    } else if (arg == "--ledger") {
      config.ledger_path = next("a file");
    } else if (arg == "--poll-ms") {
      poll_ms = std::atoi(next("a count"));
    } else if (arg == "--max-jobs") {
      max_jobs = std::strtoull(next("a count"), nullptr, 10);
    } else if (arg == "--idle-exit") {
      idle_exit_seconds = std::atof(next("a duration"));
    } else if (arg == "--trace") {
      trace_path = next("a file");
    } else if (arg == "--instance") {
      instance = next("a name");
    } else if (arg == "--no-metrics") {
      metrics_on = false;
    } else {
      print_usage(argv[0]);
      return 2;
    }
  }
  if (spool_root.empty()) {
    print_usage(argv[0]);
    return 2;
  }
  if (poll_ms < 1) poll_ms = 1;

  SpoolLayout layout{spool_root};
  std::string error;
  if (!spool_init(layout, &error)) {
    std::cerr << "spool init failed: " << error << "\n";
    return 1;
  }

  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);

  // The daemon is observed through status.json/metrics.txt, so metrics are
  // on unless explicitly refused; tracing stays opt-in (it buffers events).
  if (metrics_on) set_metrics_enabled(true);
  if (!trace_path.empty()) trace_start(trace_path);

  SynthesisServer server(config);
  SpoolRunner runner(server, layout);
  if (!instance.empty()) runner.set_instance(instance);
  std::cout << "synthesize_server: watching " << layout.inbox() << " ("
            << config.workers << " workers, queue capacity "
            << config.queue_capacity << ")\n";
  runner.write_status();

  std::uint64_t ingested = 0;
  Stopwatch idle_clock;
  while (g_stop == 0) {
    const int n = runner.poll_once();
    ingested += static_cast<std::uint64_t>(n);
    if (runner.drain_requested()) break;
    if (max_jobs > 0 && ingested >= max_jobs) break;
    const bool idle = (n == 0) && runner.pending() == 0 &&
                      server.queue_depth() == 0;
    if (!idle) idle_clock.reset();
    if (idle_exit_seconds > 0.0 && idle_clock.seconds() >= idle_exit_seconds)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }

  // Graceful drain: no new work, queued jobs finish, every finished job is
  // swept into results/ before exit.
  std::cout << "synthesize_server: draining ("
            << (g_stop != 0 ? "signal" : "requested") << ")\n";
  server.drain();
  runner.poll_once();  // final sweep + status
  runner.append_daemon_summary();
  if (!trace_path.empty() && trace_write(trace_path))
    std::cout << "synthesize_server: trace written to " << trace_path << "\n";
  std::cout << "synthesize_server: done -- " << server.submitted()
            << " submitted, " << server.cold_runs() << " cold, "
            << server.warm_hits() << " warm, " << server.rejected()
            << " rejected, " << server.cancelled() << " cancelled\n";
  return 0;
}
