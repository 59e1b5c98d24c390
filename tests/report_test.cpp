// Tests for the Table 1 / Table 2 plain-text formatting and the trace
// profile behind `report_cli profile`.
#include <gtest/gtest.h>

#include "core/report.hpp"
#include "obs/json_reader.hpp"

namespace scs {
namespace {

PacResult sample_pac_result() {
  PacResult pac;
  pac.success = true;
  PacTraceRow r1;
  r1.degree = 1;
  r1.eta = 1e-6;
  r1.eps = 0.0001;
  r1.samples = 356311;
  r1.samples_used = 356311;
  r1.error = 0.150963;
  r1.delta_e = 6e-5;
  r1.converged = true;
  PacTraceRow r2 = r1;
  r2.degree = 2;
  r2.eps = 0.001;
  r2.samples_used = 41632;
  r2.error = 0.065265;
  PacTraceRow r3 = r2;
  r3.degree = 3;
  r3.samples_used = 49632;
  r3.error = 0.029328;
  r3.accepted = true;
  pac.trace = {r1, r2, r3};
  pac.model.degree = 3;
  pac.model.eps = 0.001;
  pac.model.eta = 1e-6;
  pac.model.error = 0.029328;
  pac.model.samples = 49632;
  return pac;
}

TEST(Report, Table1HasOneRowPerDegree) {
  const std::string table = format_table1(sample_pac_result(), 0.05);
  // Header + 3 degree rows.
  int lines = 0;
  for (char c : table)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 4);
  EXPECT_NE(table.find("49632"), std::string::npos);
  EXPECT_NE(table.find("0.150963"), std::string::npos);
}

TEST(Report, Table2RowContainsPipelineData) {
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  SynthesisResult result;
  result.benchmark = "C1";
  result.dnn_structure = "2-20-20-20-20-1";
  result.pac = sample_pac_result();
  result.controller = {Polynomial(2)};
  result.barrier.success = true;
  result.barrier.degree = 4;
  result.barrier.seconds = 2.871;
  result.success = true;

  NnControllerResult baseline;
  baseline.verified = true;
  baseline.barrier_structure = "2-30-1";
  baseline.verify_seconds = 32.5;

  const std::string header = table2_header();
  const std::string row = table2_row(bench, result, &baseline);
  EXPECT_NE(header.find("T_p(s)"), std::string::npos);
  EXPECT_NE(row.find("C1"), std::string::npos);
  EXPECT_NE(row.find("2-20-20-20-20-1"), std::string::npos);
  EXPECT_NE(row.find("2.871"), std::string::npos);
  EXPECT_NE(row.find("2-30-1"), std::string::npos);
}

TEST(Report, FailedBaselineShowsCross) {
  const Benchmark bench = make_benchmark(BenchmarkId::kC8);
  SynthesisResult result;
  result.pac = sample_pac_result();
  result.controller = {Polynomial(9)};
  result.barrier.success = true;
  result.barrier.degree = 2;
  result.success = true;
  NnControllerResult baseline;  // verified = false
  const std::string row = table2_row(bench, result, &baseline);
  EXPECT_NE(row.find('x'), std::string::npos);
}

TEST(Report, MissingBaselineShowsDash) {
  const Benchmark bench = make_benchmark(BenchmarkId::kC3);
  SynthesisResult result;
  result.pac = sample_pac_result();
  result.controller = {Polynomial(3)};
  result.barrier.success = false;
  const std::string row = table2_row(bench, result, nullptr);
  EXPECT_NE(row.find('-'), std::string::npos);
}

TEST(Report, TraceProfileSubtractsSameThreadChildrenOnly) {
  // Thread 0: stage.pac [0, 100) holds pac.attempt [10, 60), which holds
  // minimax.lawson [15, 35) and an instant; barrier.arm:deg2 [70, 90) is
  // stage.pac's second child and barrier.arm:deg4 [200, 210) stands alone.
  // Thread 1: pac.draw [5, 65) overlaps stage.pac in time but is not its
  // child. Times in the trace are microseconds.
  const JsonValue trace = json_parse(R"({"traceEvents":[
    {"name":"minimax.lawson","ph":"X","ts":15,"dur":20,"pid":0,"tid":0},
    {"name":"sdp.iteration","ph":"i","ts":20,"s":"t","pid":0,"tid":0},
    {"name":"pac.attempt","ph":"X","ts":10,"dur":50,"pid":0,"tid":0},
    {"name":"pac.draw","ph":"X","ts":5,"dur":60,"pid":0,"tid":1},
    {"name":"barrier.arm:deg2","ph":"X","ts":70,"dur":20,"pid":0,"tid":0},
    {"name":"stage.pac","ph":"X","ts":0,"dur":100,"pid":0,"tid":0},
    {"name":"barrier.arm:deg4","ph":"X","ts":200,"dur":10,"pid":0,"tid":0}
  ]})");
  const std::vector<SpanProfileRow> rows = trace_profile(trace);
  ASSERT_EQ(rows.size(), 5u);
  // Largest self time first; equal self times in name order.
  const char* names[] = {"pac.draw", "barrier.arm", "pac.attempt",
                         "stage.pac", "minimax.lawson"};
  const std::size_t counts[] = {1, 2, 1, 1, 1};
  const double inclusive_us[] = {60, 30, 50, 100, 20};
  const double self_us[] = {60, 30, 30, 30, 20};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].name, names[i]);
    EXPECT_EQ(rows[i].count, counts[i]) << names[i];
    EXPECT_NEAR(rows[i].inclusive_s, inclusive_us[i] * 1e-6, 1e-12)
        << names[i];
    EXPECT_NEAR(rows[i].self_s, self_us[i] * 1e-6, 1e-12) << names[i];
  }
  const std::string table = format_trace_profile(rows);
  EXPECT_NE(table.find("self_s"), std::string::npos);
  EXPECT_NE(table.find("barrier.arm "), std::string::npos);
  EXPECT_EQ(table.find("deg2"), std::string::npos);
}

TEST(Report, TraceProfileRejectsANonTrace) {
  EXPECT_THROW(trace_profile(json_parse(R"({"events":[]})")),
               JsonParseError);
}

}  // namespace
}  // namespace scs
