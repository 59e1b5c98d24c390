// Regression gate + Table-2 reproduction dashboard over the run ledger.
//
//   ./report_cli --ledger scs_ledger.jsonl
//                --bench bench_obs=BENCH_obs.json
//                --bench bench_solvers=BENCH_solvers.json
//                --baseline baselines/bench_obs.json
//                --baseline baselines/table2_fast.json
//                [--markdown report.md] [--json report.json] [--no-dashboard]
//   ./report_cli profile trace.json
//
// Inputs:
//   --ledger <file>       JSONL run ledger (obs/ledger.hpp). Synthesis
//                         records become "<benchmark>.<field>" metric
//                         samples (verdict, pac_eps, stage timings, the
//                         metrics snapshot under "<benchmark>.metrics.");
//                         bench records flatten under their source name.
//                         Repeatable.
//   --bench <name>=<file> A BENCH_*.json blob or google-benchmark
//                         --benchmark_out JSON, flattened under <name>.
//                         Repeatable.
//   --baseline <file>     A baselines/*.json gate file (obs/baseline.hpp).
//                         Repeatable; every baseline must pass.
//
// Outputs: a markdown report (stdout, or --markdown <file>) containing the
// Table-2 reproduction dashboard -- current ledger verdicts / epsilon /
// timings per benchmark next to the paper's published claims (values the
// repo never transcribed from the paper render as "n/r") -- followed by
// the per-baseline delta tables; --json writes the machine-readable
// equivalent for CI artifacts.
//
// `profile` reads one Chrome trace (SCS_TRACE, synthesize_cli --trace, a
// perfbench trace) and prints, per span name cut at its first ':', the
// span count, inclusive seconds and self seconds (child spans on the same
// thread subtracted), sorted by self time.
//
// Exit code: 0 when every baseline check passes (improvements included);
// 1 when any check regressed or a baselined metric is missing from the
// current run; 2 on usage/load errors (a gate that cannot load must fail
// loudly). This is what `scripts/ci.sh perf` runs.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "obs/baseline.hpp"
#include "obs/json_reader.hpp"
#include "obs/ledger.hpp"
#include "systems/paper_table2.hpp"

namespace {

using namespace scs;

void print_usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--ledger <file>]... [--bench <name>=<json-file>]...\n"
      << "       [--baseline <json-file>]... [--markdown <file>]\n"
      << "       [--json <file>] [--no-dashboard]\n"
      << "       " << argv0 << " profile <trace.json>\n";
}

std::string read_file(const std::string& path, bool& ok) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ok = false;
    return {};
  }
  std::ostringstream os;
  os << in.rdbuf();
  ok = true;
  return os.str();
}

/// Fold one synthesis ledger record into the dotted-key sample set.
void add_synthesis_samples(MetricSamples& samples, const LedgerRecord& r) {
  const std::string& b = r.benchmark;
  samples.add(b + ".verdict", JsonValue::make_string(r.verdict));
  samples.add(b + ".pac_valid", JsonValue::make_bool(r.pac_valid));
  samples.add(b + ".pac_eps", JsonValue::make_number(r.pac_eps));
  samples.add(b + ".pac_error", JsonValue::make_number(r.pac_error));
  samples.add(b + ".pac_degree", JsonValue::make_number(r.pac_degree));
  samples.add(b + ".pac_samples",
              JsonValue::make_number(static_cast<double>(r.pac_samples)));
  samples.add(b + ".barrier_degree",
              JsonValue::make_number(r.barrier_degree));
  samples.add(b + ".rl_seconds", JsonValue::make_number(r.rl_seconds));
  samples.add(b + ".pac_seconds", JsonValue::make_number(r.pac_seconds));
  samples.add(b + ".barrier_seconds",
              JsonValue::make_number(r.barrier_seconds));
  samples.add(b + ".validation_seconds",
              JsonValue::make_number(r.validation_seconds));
  samples.add(b + ".total_seconds", JsonValue::make_number(r.total_seconds));
  samples.add(b + ".json_dropped",
              JsonValue::make_number(static_cast<double>(r.json_dropped)));
  if (!r.metrics_json.empty()) {
    JsonValue metrics;
    std::string error;
    if (json_try_parse(r.metrics_json, &metrics, &error))
      samples.add_flattened(b + ".metrics", metrics);
  }
}

/// The most recent synthesis record per benchmark (file order = append
/// order), for the dashboard's "current run" column.
const LedgerRecord* latest_synthesis(const std::vector<LedgerRecord>& records,
                                     const std::string& benchmark) {
  const LedgerRecord* latest = nullptr;
  for (const LedgerRecord& r : records)
    if (r.kind == "synthesis" && r.benchmark == benchmark) latest = &r;
  return latest;
}

std::string fmt(double v) { return paper_value_repr(v); }

std::string dashboard_markdown(const std::vector<LedgerRecord>& records) {
  std::ostringstream os;
  os << "## Table 2 reproduction dashboard\n\n"
     << "Paper columns show the published claims recorded in this repo; "
        "values the paper prints but the repo never transcribed are `n/r`. "
        "Run columns come from the most recent ledger record per "
        "benchmark (`--` = benchmark not in the ledger).\n\n"
     << "| Bench | n_x | d_f | DNN (paper) | paper verdict | run verdict | "
        "eps | e | d_p | d_B | T_p (s) | total (s) |\n"
     << "|---|---|---|---|---|---|---|---|---|---|---|---|\n";
  int present = 0, verified = 0;
  for (const PaperTable2Row& p : paper_table2()) {
    os << "| " << p.name << " | " << p.n_x << " | " << p.d_f << " | `"
       << p.dnn_structure << "` | "
       << (p.verified ? "VERIFIED" : "UNVERIFIED") << " | ";
    const LedgerRecord* r = latest_synthesis(records, p.name);
    if (r == nullptr) {
      os << "-- | -- | -- | -- | -- | -- | -- |\n";
      continue;
    }
    ++present;
    if (r->verdict == "VERIFIED") ++verified;
    const bool match = (r->verdict == "VERIFIED") == p.verified;
    os << r->verdict << (match ? "" : " (!)") << " | " << fmt(r->pac_eps)
       << " | " << fmt(r->pac_error) << " | "
       << paper_value_repr(r->pac_degree) << " | "
       << (r->barrier_degree > 0 ? paper_value_repr(r->barrier_degree)
                                 : std::string("x"))
       << " | " << fmt(r->barrier_seconds) << " | " << fmt(r->total_seconds)
       << " |\n";
  }
  os << "\nPaper claim: 10/10 VERIFIED. This run: " << verified << "/"
     << present << " of the benchmarks present in the ledger.\n";
  return os.str();
}

/// The most recent fuzz-campaign summary in the ledger (bench records with
/// source "fuzz_campaign" carry the campaign JSON in values_json).
const LedgerRecord* latest_fuzz_campaign(
    const std::vector<LedgerRecord>& records) {
  const LedgerRecord* latest = nullptr;
  for (const LedgerRecord& r : records)
    if (r.kind == "bench" && r.source == "fuzz_campaign" &&
        !r.values_json.empty())
      latest = &r;
  return latest;
}

void fuzz_bucket_table(std::ostringstream& os, const char* title,
                       const JsonValue& doc, const char* key) {
  const JsonValue* buckets = doc.find(key);
  if (buckets == nullptr || !buckets->is_array() || buckets->items.empty())
    return;
  os << "### Success rate by " << title << "\n\n"
     << "| bucket | runs | verified | rate | mean seconds |\n"
     << "|---|---|---|---|---|\n";
  for (const JsonValue& b : buckets->items) {
    os << "| " << (b.find("bucket") ? b.find("bucket")->string_or("?") : "?")
       << " | " << (b.find("runs") ? b.find("runs")->int_or(0) : 0) << " | "
       << (b.find("verified") ? b.find("verified")->int_or(0) : 0) << " | "
       << fmt(b.find("rate") ? b.find("rate")->number_or(0.0) : 0.0) << " | "
       << fmt(b.find("mean_seconds")
                  ? b.find("mean_seconds")->number_or(0.0)
                  : 0.0)
       << " |\n";
  }
  os << "\n";
}

/// Render the latest fuzz campaign as bucketed success-rate curves, with
/// the soundness cross-check verdict up front. Empty string when the
/// ledger has no campaign record.
std::string fuzz_markdown(const std::vector<LedgerRecord>& records) {
  const LedgerRecord* r = latest_fuzz_campaign(records);
  if (r == nullptr) return {};
  JsonValue doc;
  std::string error;
  if (!json_try_parse(r->values_json, &doc, &error)) return {};
  const JsonValue* c = doc.find("campaign");
  if (c == nullptr) return {};
  std::ostringstream os;
  const auto num = [&](const char* k) {
    const JsonValue* v = c->find(k);
    return v ? v->int_or(0) : std::int64_t{0};
  };
  os << "## Fuzz campaign (seed " << num("seed") << ")\n\n"
     << "Random-family soundness sweep (src/systems/family_gen + "
        "examples/fuzz_cli): every VERIFIED verdict is re-validated by the "
        "independent certificate checker.\n\n"
     << "- systems: " << num("ran") << " ran / " << num("count")
     << " generated";
  if (num("skipped") > 0) os << " (" << num("skipped") << " skipped)";
  os << "\n- verdicts: " << num("verified") << " VERIFIED, "
     << num("unverified") << " UNVERIFIED\n"
     << "- independent checker: " << num("checker_accepted") << "/"
     << num("checked") << " certificates accepted\n"
     << "- **soundness violations: " << num("soundness_violations")
     << "**\n\n";
  fuzz_bucket_table(os, "state dimension", doc, "by_n");
  fuzz_bucket_table(os, "field degree", doc, "by_degree");
  fuzz_bucket_table(os, "spectral radius", doc, "by_radius");
  const JsonValue* violations = doc.find("violations");
  if (violations != nullptr && violations->is_array() &&
      !violations->items.empty()) {
    os << "### Soundness violations\n\n";
    for (const JsonValue& v : violations->items)
      os << "- `"
         << (v.find("benchmark") ? v.find("benchmark")->string_or("?") : "?")
         << "`: "
         << (v.find("detail") ? v.find("detail")->string_or("") : "") << "\n";
    os << "\n";
  }
  return os.str();
}

/// `report_cli profile <trace.json>`: the per-span-name time table.
int profile_main(int argc, char** argv) {
  if (argc != 3) {
    print_usage(argv[0]);
    return 2;
  }
  bool ok = false;
  const std::string text = read_file(argv[2], ok);
  if (!ok) {
    std::cerr << "error: cannot read trace '" << argv[2] << "'\n";
    return 2;
  }
  try {
    std::cout << format_trace_profile(trace_profile(json_parse(text)));
  } catch (const JsonParseError& e) {
    std::cerr << "error: trace '" << argv[2] << "': " << e.what() << "\n";
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "profile")
    return profile_main(argc, argv);
  std::vector<std::string> ledger_paths;
  std::vector<std::pair<std::string, std::string>> bench_inputs;
  std::vector<std::string> baseline_paths;
  std::string markdown_path;
  std::string json_path;
  bool dashboard = true;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs " << what << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--ledger") {
      ledger_paths.push_back(next("a file argument"));
    } else if (arg == "--bench") {
      const std::string spec = next("a <name>=<json-file> argument");
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::cerr << "--bench expects <name>=<json-file>, got '" << spec
                  << "'\n";
        return 2;
      }
      bench_inputs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--baseline") {
      baseline_paths.push_back(next("a file argument"));
    } else if (arg == "--markdown") {
      markdown_path = next("a file argument");
    } else if (arg == "--json") {
      json_path = next("a file argument");
    } else if (arg == "--no-dashboard") {
      dashboard = false;
    } else {
      print_usage(argv[0]);
      return 2;
    }
  }
  if (ledger_paths.empty() && bench_inputs.empty()) {
    print_usage(argv[0]);
    return 2;
  }

  // ---- Gather current metrics.
  MetricSamples samples;
  std::vector<LedgerRecord> all_records;
  for (const std::string& path : ledger_paths) {
    const LedgerReadResult read = ledger_read(path);
    if (read.records.empty() && !read.errors.empty()) {
      std::cerr << "error: " << read.errors.front() << "\n";
      return 2;
    }
    for (const std::string& e : read.errors)
      std::cerr << "warning: ledger " << path << ": " << e << "\n";
    for (const LedgerRecord& r : read.records) {
      if (r.kind == "synthesis") {
        add_synthesis_samples(samples, r);
      } else if (!r.values_json.empty()) {
        JsonValue values;
        std::string error;
        if (json_try_parse(r.values_json, &values, &error))
          samples.add_flattened(r.source, values);
      }
      all_records.push_back(r);
    }
  }
  for (const auto& [name, path] : bench_inputs) {
    bool ok = false;
    const std::string text = read_file(path, ok);
    if (!ok) {
      std::cerr << "error: cannot read bench file '" << path << "'\n";
      return 2;
    }
    try {
      samples.add_flattened(name, json_parse(text));
    } catch (const JsonParseError& e) {
      std::cerr << "error: bench file '" << path << "': " << e.what() << "\n";
      return 2;
    }
  }

  // ---- Evaluate every baseline gate.
  std::vector<BaselineReport> reports;
  for (const std::string& path : baseline_paths) {
    try {
      reports.push_back(baseline_compare(baseline_load_file(path), samples));
    } catch (const JsonParseError& e) {
      // A gate file that cannot load is a loud failure, not a soft pass.
      std::cerr << "error: baseline '" << path << "': " << e.what() << "\n";
      return 2;
    }
  }

  // ---- Emit.
  std::ostringstream md;
  md << "# Run report\n\n";
  if (dashboard) md << dashboard_markdown(all_records) << "\n";
  // The fuzz section keys off the ledger itself (empty when no campaign
  // record), so it renders even under --no-dashboard.
  md << fuzz_markdown(all_records);
  if (!reports.empty()) md << baseline_report_markdown(reports);

  if (markdown_path.empty()) {
    std::cout << md.str();
  } else {
    std::ofstream(markdown_path) << md.str();
    std::cout << "markdown report written to " << markdown_path << "\n";
  }
  if (!json_path.empty()) {
    std::ofstream(json_path) << baseline_report_json(reports) << "\n";
    std::cout << "json report written to " << json_path << "\n";
  }

  bool passed = true;
  for (const BaselineReport& r : reports) {
    passed = passed && r.passed();
    std::cerr << "gate " << r.name << ": "
              << (r.passed() ? "PASSED" : "FAILED") << " (" << r.regressed
              << " regressed, " << r.missing << " missing)\n";
  }
  return passed ? 0 : 1;
}
