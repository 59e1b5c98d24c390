// Run-ledger tests (src/obs/ledger) plus the JSON reader backing it
// (src/obs/json_reader): record round-trips, torn/truncated-line
// rejection, schema-version policy, and concurrent-append integrity --
// the single-locked-write discipline must keep every record intact when
// many threads append to one file.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_reader.hpp"
#include "obs/json_writer.hpp"
#include "obs/ledger.hpp"

namespace scs {
namespace {

namespace fs = std::filesystem;

/// Fresh file path in the system temp dir, removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& stem) {
    path_ = (fs::temp_directory_path() /
             (stem + "-" + std::to_string(::getpid()) + ".jsonl"))
                .string();
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

LedgerRecord sample_synthesis() {
  LedgerRecord r;
  r.kind = "synthesis";
  r.source = "synthesize";
  r.run_id = "test-run-1";
  r.config_key = "00000000deadbeef";
  r.seed = 2024;
  r.threads = 4;
  r.benchmark = "C1";
  r.verdict = "VERIFIED";
  r.pac_valid = true;
  r.pac_eps = 0.01;
  r.pac_error = 0.0162;
  r.pac_degree = 3;
  r.pac_samples = 7164;
  r.barrier_degree = 4;
  r.rl_seconds = 1.5;
  r.pac_seconds = 0.25;
  r.barrier_seconds = 2.0;
  r.validation_seconds = 0.125;
  r.total_seconds = 3.875;
  r.metrics_json = "{\"counters\":{\"sdp.solves\":3}}";
  return r;
}

// ---- JSON reader --------------------------------------------------------

TEST(JsonReader, ParsesScalarsArraysObjects) {
  const JsonValue doc =
      json_parse("{\"a\": 1.5, \"b\": [true, null, \"x\"], \"c\": -2e3}");
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.find("a")->number_or(0), 1.5);
  const JsonValue* b = doc.find("b");
  ASSERT_TRUE(b != nullptr && b->is_array());
  ASSERT_EQ(b->items.size(), 3u);
  EXPECT_TRUE(b->items[0].bool_or(false));
  EXPECT_TRUE(b->items[1].is_null());
  EXPECT_EQ(b->items[2].string_or(""), "x");
  EXPECT_DOUBLE_EQ(doc.find("c")->number_or(0), -2000.0);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonReader, DecodesEscapesAndSurrogatePairs) {
  EXPECT_EQ(json_parse("\"a\\n\\t\\\"\\\\b\"").string, "a\n\t\"\\b");
  EXPECT_EQ(json_parse("\"\\u00e9\"").string, "\xc3\xa9");          // e-acute
  EXPECT_EQ(json_parse("\"\\ud83d\\ude00\"").string,
            "\xf0\x9f\x98\x80");  // U+1F600 via surrogate pair
  EXPECT_THROW(json_parse("\"\\ud83d\""), JsonParseError);  // lone surrogate
}

TEST(JsonReader, RejectsWhatTheValidatorRejects) {
  for (const char* bad :
       {"", "{", "{\"a\":1,}", "[1 2]", "nan", "Infinity", "01", "{} x",
        "\"a\nb\""}) {
    EXPECT_THROW(json_parse(bad), JsonParseError) << bad;
    JsonValue out;
    std::string error;
    EXPECT_FALSE(json_try_parse(bad, &out, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(JsonReader, AgreesWithValidatorOnEmittedBlobs) {
  // Everything JsonWriter emits must parse under both the validator and
  // the DOM reader.
  JsonWriter w;
  w.begin_object();
  w.key("weird \"key\"").value("nl\nctl\x01");
  w.key("nums").begin_array().value(0.029328).value(-1).end_array();
  w.end_object();
  EXPECT_TRUE(json_parse_valid(w.str()));
  const JsonValue doc = json_parse(w.str());
  EXPECT_EQ(doc.find("weird \"key\"")->string, "nl\nctl\x01");
}

TEST(JsonReader, DuplicateKeysLastWins) {
  EXPECT_DOUBLE_EQ(json_parse("{\"k\":1,\"k\":2}").find("k")->number, 2.0);
}

// ---- Record round-trip --------------------------------------------------

TEST(Ledger, SynthesisRecordRoundTrips) {
  const LedgerRecord r = sample_synthesis();
  const std::string line = ledger_record_json(r);
  EXPECT_TRUE(json_parse_valid(line));

  LedgerRecord back;
  std::string error;
  ASSERT_TRUE(ledger_record_parse(line, &back, &error)) << error;
  EXPECT_EQ(back.kind, "synthesis");
  EXPECT_EQ(back.source, "synthesize");
  EXPECT_EQ(back.config_key, "00000000deadbeef");
  EXPECT_EQ(back.seed, 2024u);
  EXPECT_EQ(back.threads, 4);
  EXPECT_EQ(back.benchmark, "C1");
  EXPECT_EQ(back.verdict, "VERIFIED");
  EXPECT_TRUE(back.pac_valid);
  EXPECT_DOUBLE_EQ(back.pac_eps, 0.01);
  EXPECT_DOUBLE_EQ(back.pac_error, 0.0162);
  EXPECT_EQ(back.pac_degree, 3);
  EXPECT_EQ(back.pac_samples, 7164u);
  EXPECT_EQ(back.barrier_degree, 4);
  EXPECT_DOUBLE_EQ(back.total_seconds, 3.875);
  EXPECT_EQ(back.metrics_json, "{\"counters\":{\"sdp.solves\":3}}");
}

TEST(Ledger, ParsesSynthesisLineCarryingRetiredRaceFields) {
  // A schema-1 line as the writer emitted it while the barrier ladder could
  // race its arms: ledgers and CI artifacts on disk still carry the four
  // race fields. The reader ignores them and reads every other field back;
  // re-serializing the record drops them.
  const std::string line =
      "{\"schema\":1,\"kind\":\"synthesis\","
      "\"run_id\":\"1760716800000-4242-0\",\"source\":\"synthesize\","
      "\"timestamp_ms\":1760716800000,"
      "\"git_head\":\"86bdc8e15c9fcb5c5836788b3986ff1bdd99246d\","
      "\"config_key\":\"00000000deadbeef\",\"seed\":2024,\"threads\":4,"
      "\"benchmark\":\"C1\",\"verdict\":\"VERIFIED\","
      "\"failure_stage\":\"\",\"pac_valid\":true,\"pac_eps\":0.01,"
      "\"pac_error\":0.016199999999999999,\"pac_degree\":3,"
      "\"pac_samples\":7164,\"barrier_degree\":4,"
      "\"barrier_raced\":false,\"race_winner_arm\":5,"
      "\"race_arms_launched\":6,\"race_arms_cancelled\":0,"
      "\"rl_seconds\":1.5,\"pac_seconds\":0.25,\"barrier_seconds\":2,"
      "\"validation_seconds\":0.125,\"total_seconds\":3.875,"
      "\"json_dropped\":0,\"metrics\":{\"counters\":{\"sdp.solves\":3}}}";
  LedgerRecord back;
  std::string error;
  ASSERT_TRUE(ledger_record_parse(line, &back, &error)) << error;
  EXPECT_EQ(back.run_id, "1760716800000-4242-0");
  EXPECT_EQ(back.timestamp_ms, 1760716800000);
  EXPECT_EQ(back.git_head, "86bdc8e15c9fcb5c5836788b3986ff1bdd99246d");
  EXPECT_EQ(back.config_key, "00000000deadbeef");
  EXPECT_EQ(back.seed, 2024u);
  EXPECT_EQ(back.threads, 4);
  EXPECT_EQ(back.benchmark, "C1");
  EXPECT_EQ(back.verdict, "VERIFIED");
  EXPECT_TRUE(back.pac_valid);
  EXPECT_DOUBLE_EQ(back.pac_eps, 0.01);
  EXPECT_DOUBLE_EQ(back.pac_error, 0.0162);
  EXPECT_EQ(back.pac_degree, 3);
  EXPECT_EQ(back.pac_samples, 7164u);
  EXPECT_EQ(back.barrier_degree, 4);
  EXPECT_DOUBLE_EQ(back.barrier_seconds, 2.0);
  EXPECT_DOUBLE_EQ(back.total_seconds, 3.875);
  EXPECT_EQ(back.metrics_json, "{\"counters\":{\"sdp.solves\":3}}");
  const std::string rewritten = ledger_record_json(back);
  EXPECT_EQ(rewritten.find("_raced"), std::string::npos) << rewritten;
  EXPECT_EQ(rewritten.find("\"race_"), std::string::npos) << rewritten;
}

TEST(Ledger, BenchRecordRoundTrips) {
  LedgerRecord r;
  r.kind = "bench";
  r.source = "bench_obs";
  r.run_id = "id-1";
  r.values_json = "{\"enabled_overhead_pct\":3.5,\"ok\":true}";
  LedgerRecord back;
  std::string error;
  ASSERT_TRUE(ledger_record_parse(ledger_record_json(r), &back, &error))
      << error;
  EXPECT_EQ(back.kind, "bench");
  EXPECT_EQ(back.source, "bench_obs");
  EXPECT_EQ(back.values_json, "{\"enabled_overhead_pct\":3.5,\"ok\":true}");
}

TEST(Ledger, ParseRejectsTornAndForeignRecords) {
  const std::string line = ledger_record_json(sample_synthesis());
  std::string error;
  // Torn write: any strict prefix of a record must be rejected.
  EXPECT_FALSE(ledger_record_parse(line.substr(0, line.size() / 2), nullptr,
                                   &error));
  EXPECT_FALSE(error.empty());
  // Schema from the future: reject, don't misread.
  EXPECT_FALSE(ledger_record_parse(
      "{\"schema\":2,\"kind\":\"synthesis\",\"run_id\":\"x\"}", nullptr,
      &error));
  EXPECT_NE(error.find("schema"), std::string::npos);
  // Unknown kind / missing required fields.
  EXPECT_FALSE(ledger_record_parse(
      "{\"schema\":1,\"kind\":\"mystery\",\"run_id\":\"x\"}", nullptr));
  EXPECT_FALSE(ledger_record_parse(
      "{\"schema\":1,\"kind\":\"synthesis\",\"run_id\":\"x\"}", nullptr));
  EXPECT_FALSE(ledger_record_parse("not json at all", nullptr));
}

// ---- File append / read -------------------------------------------------

TEST(Ledger, AppendFillsIdentityAndReadsBack) {
  TempFile file("scs-ledger-append");
  LedgerRecord r = sample_synthesis();
  r.run_id.clear();  // empty: append assigns a fresh unique id
  r.timestamp_ms = 0;
  ASSERT_TRUE(ledger_append(file.path(), r));
  ASSERT_TRUE(ledger_append(file.path(), r));

  const LedgerReadResult read = ledger_read(file.path());
  EXPECT_EQ(read.skipped, 0) << (read.errors.empty() ? "" : read.errors[0]);
  ASSERT_EQ(read.records.size(), 2u);
  // run_id / timestamp were filled in; ids are unique per append.
  EXPECT_FALSE(read.records[0].run_id.empty());
  EXPECT_NE(read.records[0].run_id, read.records[1].run_id);
  EXPECT_GT(read.records[0].timestamp_ms, 0);
  EXPECT_EQ(read.records[0].benchmark, "C1");
}

TEST(Ledger, ReadSkipsTruncatedTrailingLineKeepsIntactRecords) {
  TempFile file("scs-ledger-torn");
  ASSERT_TRUE(ledger_append(file.path(), sample_synthesis()));
  ASSERT_TRUE(ledger_append(file.path(), sample_synthesis()));
  // Simulate a crash mid-append: half a record, no newline.
  const std::string line = ledger_record_json(sample_synthesis());
  std::ofstream(file.path(), std::ios::app | std::ios::binary)
      << line.substr(0, line.size() / 2);

  const LedgerReadResult read = ledger_read(file.path());
  EXPECT_EQ(read.records.size(), 2u);
  EXPECT_EQ(read.skipped, 1);
  ASSERT_EQ(read.errors.size(), 1u);
  EXPECT_NE(read.errors[0].find("line 3"), std::string::npos)
      << read.errors[0];
}

TEST(Ledger, MissingFileReportsOneErrorZeroRecords) {
  const LedgerReadResult read = ledger_read("/nonexistent/scs-ledger.jsonl");
  EXPECT_TRUE(read.records.empty());
  ASSERT_EQ(read.errors.size(), 1u);
}

TEST(Ledger, ConcurrentAppendsStayIntact) {
  TempFile file("scs-ledger-concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        LedgerRecord r = sample_synthesis();
        r.benchmark = "C" + std::to_string(t + 1);
        r.seed = static_cast<std::uint64_t>(t * kPerThread + i);
        ASSERT_TRUE(ledger_append(file.path(), r));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const LedgerReadResult read = ledger_read(file.path());
  EXPECT_EQ(read.skipped, 0) << (read.errors.empty() ? "" : read.errors[0]);
  ASSERT_EQ(read.records.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  // Every record intact and attributable: the (benchmark, seed) pairs are
  // exactly the ones written, each exactly once.
  std::vector<bool> seen(kThreads * kPerThread, false);
  for (const LedgerRecord& r : read.records) {
    ASSERT_LT(r.seed, seen.size());
    EXPECT_FALSE(seen[r.seed]) << "duplicate seed " << r.seed;
    seen[r.seed] = true;
    EXPECT_EQ(r.benchmark,
              "C" + std::to_string(r.seed / kPerThread + 1));
  }
}

void write_file(const fs::path& path, const std::string& text) {
  fs::create_directories(path.parent_path());
  std::ofstream(path, std::ios::trunc) << text;
}

TEST(Ledger, GitHeadResolvesLooseThenPackedRefs) {
  const fs::path root = fs::temp_directory_path() /
                        ("scs_ledger_git_" + std::to_string(::getpid()));
  fs::remove_all(root);
  const fs::path git = root / ".git";
  const std::string packed(40, 'a');
  const std::string loose(40, 'b');
  write_file(git / "HEAD", "ref: refs/heads/main\n");
  // What `git pack-refs` writes: a header, a longer name sharing the
  // prefix, the branch, and an annotated tag with its peeled line.
  write_file(git / "packed-refs",
             "# pack-refs with: peeled fully-peeled sorted \n" +
                 std::string(40, 'c') + " refs/heads/main-old\n" + packed +
                 " refs/heads/main\n" + std::string(40, 'd') +
                 " refs/tags/v1\n^" + std::string(40, 'e') + "\n");
  EXPECT_EQ(git_head_describe(root.string()), packed);

  write_file(git / "refs" / "heads" / "main", loose + "\n");
  EXPECT_EQ(git_head_describe(root.string()), loose);

  write_file(git / "HEAD", "ref: refs/heads/absent\n");
  EXPECT_EQ(git_head_describe(root.string()), "");
  fs::remove_all(root);
}

TEST(Ledger, ResolvePathPrefersConfigured) {
  EXPECT_EQ(resolve_ledger_path("explicit.jsonl"), "explicit.jsonl");
  // With no SCS_LEDGER in the test environment, empty resolves to off.
  if (ledger_env_path().empty()) {
    EXPECT_EQ(resolve_ledger_path(""), "");
  }
}

}  // namespace
}  // namespace scs
