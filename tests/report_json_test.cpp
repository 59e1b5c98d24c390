// Tests for the shared JSON writer (src/obs/json_writer) and the report
// JSON emitters built on it: escaping round-trips, NaN/Inf handling,
// comma placement, strict parse validation, and the failure-field /
// recorded-thread-width fixes in stage_timings_json.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "core/report.hpp"
#include "obs/json_writer.hpp"

namespace scs {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("benchmark C1"), "benchmark C1");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json_escape(std::string("a\x01z", 3)), "a\\u0001z");
  EXPECT_EQ(json_escape(std::string("\0", 1)), "\\u0000");
}

TEST(JsonEscape, EscapedStringsParseAsJson) {
  const std::string nasty =
      "quote \" backslash \\ newline \n tab \t bell \x07 done";
  const std::string doc = "\"" + json_escape(nasty) + "\"";
  std::string error;
  EXPECT_TRUE(json_parse_valid(doc, &error)) << error;
}

TEST(JsonNumber, FiniteRoundTrip) {
  EXPECT_EQ(json_number(0.0), "0");
  const std::string s = json_number(0.029328);
  EXPECT_DOUBLE_EQ(std::stod(s), 0.029328);
}

TEST(JsonNumber, NonFiniteBecomesNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonNumber, NonFiniteBumpsDroppedCounter) {
  // Every NaN/Inf silently mapped to null must be counted, so ledger
  // records and baseline gates can flag runs that produced garbage.
  json_nonfinite_dropped_reset_for_tests();
  json_number(std::numeric_limits<double>::quiet_NaN());
  json_number(std::numeric_limits<double>::infinity());
  json_number(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(json_nonfinite_dropped(), 3u);
}

TEST(JsonNumber, FiniteValuesDoNotBumpDroppedCounter) {
  json_nonfinite_dropped_reset_for_tests();
  json_number(0.0);
  json_number(-1.5e300);
  json_number(std::numeric_limits<double>::max());
  EXPECT_EQ(json_nonfinite_dropped(), 0u);
}

TEST(JsonWriter, NonFiniteValueEmitsNullAndCounts) {
  json_nonfinite_dropped_reset_for_tests();
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(1.0);
  w.end_array();
  EXPECT_EQ(w.str(), "[null,1]");
  EXPECT_TRUE(json_parse_valid(w.str()));
  EXPECT_EQ(json_nonfinite_dropped(), 1u);
}

TEST(JsonWriter, NestedContainersAndCommas) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("C\"1");
  w.key("values").begin_array();
  w.value(1).value(2).value(true).null();
  w.end_array();
  w.key("inner").begin_object();
  w.key("x").value(0.5, 3);
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"C\\\"1\",\"values\":[1,2,true,null],"
            "\"inner\":{\"x\":0.5}}");
  std::string error;
  EXPECT_TRUE(json_parse_valid(w.str(), &error)) << error;
}

TEST(JsonWriter, RawSplicesPreserialized) {
  JsonWriter inner;
  inner.begin_object();
  inner.key("a").value(1);
  inner.end_object();
  JsonWriter w;
  w.begin_object();
  w.key("first").value(0);
  w.key("nested").raw(inner.str());
  w.key("after").value(2);
  w.end_object();
  EXPECT_EQ(w.str(), "{\"first\":0,\"nested\":{\"a\":1},\"after\":2}");
  EXPECT_TRUE(json_parse_valid(w.str()));
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_FALSE(json_parse_valid(""));
  EXPECT_FALSE(json_parse_valid("{"));
  EXPECT_FALSE(json_parse_valid("{\"a\":1,}"));
  EXPECT_FALSE(json_parse_valid("{\"a\" 1}"));
  EXPECT_FALSE(json_parse_valid("\"unterminated"));
  EXPECT_FALSE(json_parse_valid("{} trailing"));
  EXPECT_FALSE(json_parse_valid("nul"));
  EXPECT_FALSE(json_parse_valid("01"));
  // Raw control characters are not allowed inside strings.
  EXPECT_FALSE(json_parse_valid("\"a\nb\""));
  // A lone surrogate escape is not a character (json_escape never emits
  // one).
  EXPECT_FALSE(json_parse_valid("\"\\ud800\""));
}

TEST(JsonParse, AcceptsTypicalDocuments) {
  EXPECT_TRUE(json_parse_valid("null"));
  EXPECT_TRUE(json_parse_valid("  [1, -2.5e3, \"x\", {\"k\": false}]  "));
  EXPECT_TRUE(json_parse_valid("{\"u\":\"\\u00e9\\n\"}"));
}

SynthesisResult sample_result() {
  SynthesisResult r;
  r.benchmark = "C1";
  r.verdict = "UNVERIFIED";
  r.failure_stage = "barrier";
  r.failure_message = "SDP said: \"infeasible\"\n(line2) path\\to\\blob";
  r.rl_seconds = 1.25;
  r.pac_seconds = 0.5;
  r.barrier_seconds = 2.0;
  r.validation_seconds = 0.0;
  r.total_seconds = 3.75;
  r.threads_used = 3;
  return r;
}

TEST(ReportJson, StageTimingsEscapeFailureMessage) {
  const std::string blob = stage_timings_json(sample_result());
  std::string error;
  EXPECT_TRUE(json_parse_valid(blob, &error)) << error << "\n" << blob;
  // The quote/newline/backslashes in the failure message must be escaped.
  EXPECT_NE(blob.find("\\\"infeasible\\\""), std::string::npos);
  EXPECT_NE(blob.find("\\n(line2)"), std::string::npos);
  EXPECT_NE(blob.find("path\\\\to\\\\blob"), std::string::npos);
  EXPECT_NE(blob.find("\"failure_stage\":\"barrier\""), std::string::npos);
}

TEST(ReportJson, StageTimingsUseRecordedThreadWidth) {
  // threads_used was recorded at synthesize() entry; the report must echo
  // it rather than sampling the pool width at report time.
  const std::string blob = stage_timings_json(sample_result());
  EXPECT_NE(blob.find("\"threads\":3"), std::string::npos);
}

TEST(ReportJson, StageTimingsIncludeCacheWhenEnabled) {
  SynthesisResult r = sample_result();
  r.cache.enabled = true;
  r.cache.rl.hits = 1;
  r.cache.pac.misses = 2;
  const std::string blob = stage_timings_json(r);
  std::string error;
  EXPECT_TRUE(json_parse_valid(blob, &error)) << error;
  EXPECT_NE(blob.find("\"cache\":{\"enabled\":true"), std::string::npos);
}

TEST(ReportJson, CacheStatsCoverAllStages) {
  CacheStats stats;
  stats.enabled = true;
  stats.barrier.corrupt = 1;
  stats.validation.load_seconds = 0.125;
  const std::string blob = cache_stats_json(stats);
  std::string error;
  EXPECT_TRUE(json_parse_valid(blob, &error)) << error;
  for (const char* stage : {"\"rl\"", "\"pac\"", "\"barrier\"",
                            "\"validation\""})
    EXPECT_NE(blob.find(stage), std::string::npos) << stage;
  EXPECT_NE(blob.find("\"corrupt\":1"), std::string::npos);
}

TEST(ReportJson, BenchmarkNameWithQuoteStaysParseable) {
  SynthesisResult r = sample_result();
  r.benchmark = "evil\"name";
  const std::string blob = stage_timings_json(r);
  std::string error;
  EXPECT_TRUE(json_parse_valid(blob, &error)) << error << "\n" << blob;
}

}  // namespace
}  // namespace scs
