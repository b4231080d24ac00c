#include "obs/critpath.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/error.hpp"

namespace gaia::obs {
namespace {

ParsedEvent span(const char* name, const char* cat, std::int64_t pid,
                 std::int64_t tid, double ts, double dur,
                 std::int64_t itn = -1) {
  ParsedEvent e;
  e.name = name;
  e.cat = cat;
  e.phase = 'X';
  e.pid = pid;
  e.tid = tid;
  e.ts_us = ts;
  e.dur_us = dur;
  if (itn >= 0) {
    util::JsonValue v;
    v.kind = util::JsonValue::Kind::kNumber;
    v.number = static_cast<double>(itn);
    e.args.kind = util::JsonValue::Kind::kObject;
    e.args.object.emplace_back("itn", v);
  }
  return e;
}

/// Two ranks, one iteration. Rank 0: iteration [0,100], compute [0,60],
/// allreduce [60,90] (wait [60,80], exchange [80,90]). Rank 1: iteration
/// [20,110], compute [20,100], allreduce [70,100] *fully overlapped* by
/// its compute.
TraceDoc two_rank_doc() {
  TraceDoc doc;
  doc.merged = true;
  doc.n_ranks = 2;
  doc.source_ranks = {0, 1};
  doc.events.push_back(span("lsqr.iteration", "lsqr", 0, 0, 0, 100, 1));
  doc.events.push_back(span("aprod1", "kernel", 0, 0, 0, 60));
  doc.events.push_back(span("allreduce", "comm", 0, 1000, 60, 30));
  doc.events.push_back(span("allreduce.wait", "comm", 0, 1000, 60, 20));
  doc.events.push_back(span("allreduce.exchange", "comm", 0, 1000, 80, 10));
  doc.events.push_back(span("lsqr.iteration", "lsqr", 1, 0, 20, 90, 1));
  doc.events.push_back(span("aprod1", "kernel", 1, 0, 20, 80));
  doc.events.push_back(span("allreduce", "comm", 1, 1001, 70, 30));
  doc.events.push_back(span("allreduce.wait", "comm", 1, 1001, 70, 5));
  doc.events.push_back(span("allreduce.exchange", "comm", 1, 1001, 75, 25));
  return doc;
}

TEST(Critpath, ComputesIterationWindowAndExposure) {
  const CritpathReport report = analyze_critpath(two_rank_doc());
  ASSERT_EQ(report.iterations.size(), 1u);
  const IterationStats& s = report.iterations[0];
  EXPECT_EQ(s.itn, 1);
  EXPECT_EQ(s.ranks_seen, 2);
  // Window: min start 0, max end 110.
  EXPECT_DOUBLE_EQ(s.critical_path_us, 110.0);
  EXPECT_DOUBLE_EQ(s.skew_us, 20.0);
  // Rank 0's allreduce [60,90] overlaps no compute (compute ends at 60):
  // 30 us exposed. Rank 1's allreduce [70,100] sits inside compute
  // [20,100]: 0 exposed. Max over ranks = 30.
  EXPECT_DOUBLE_EQ(s.comm_us_max, 30.0);
  EXPECT_DOUBLE_EQ(s.exposed_us_max, 30.0);
  EXPECT_NEAR(s.exposure_fraction, 30.0 / 110.0, 1e-12);
  // Headroom: rank 0 has 30 exposed and 60 compute -> min = 30.
  EXPECT_DOUBLE_EQ(s.overlap_headroom_us, 30.0);
  // Compute: rank0 60, rank1 80 -> imbalance 1 - 140/(2*80) = 0.125.
  EXPECT_NEAR(s.imbalance, 0.125, 1e-12);
  EXPECT_TRUE(report.complete);
  EXPECT_GT(s.wait_p95_us, s.wait_p50_us - 1e-9);
}

TEST(Critpath, AggregatesAcrossIterations) {
  TraceDoc doc = two_rank_doc();
  // Second iteration, only on rank 0 -> report is partial.
  doc.events.push_back(span("lsqr.iteration", "lsqr", 0, 0, 200, 50, 2));
  doc.events.push_back(span("allreduce", "comm", 0, 1000, 210, 10));
  const CritpathReport report = analyze_critpath(doc);
  ASSERT_EQ(report.iterations.size(), 2u);
  EXPECT_FALSE(report.complete);
  EXPECT_DOUBLE_EQ(report.total_critical_path_us, 110.0 + 50.0);
  EXPECT_DOUBLE_EQ(report.total_exposed_us, 30.0 + 10.0);
  EXPECT_DOUBLE_EQ(report.max_skew_us, 20.0);
}

TEST(Critpath, GatesTripOnThresholds) {
  const CritpathReport report = analyze_critpath(two_rank_doc());
  CritpathOptions options;
  EXPECT_TRUE(check_gates(report, options).empty());

  options.max_exposure_fraction = 0.1;  // actual ~0.27
  EXPECT_EQ(check_gates(report, options).size(), 1u);

  options.max_exposure_fraction = 0.9;
  options.max_skew_us = 5.0;  // actual 20
  EXPECT_EQ(check_gates(report, options).size(), 1u);
}

TEST(Critpath, PartialTraceFailsGateUnlessAllowed) {
  TraceDoc doc = two_rank_doc();
  doc.events.push_back(span("lsqr.iteration", "lsqr", 0, 0, 200, 50, 2));
  const CritpathReport report = analyze_critpath(doc);
  ASSERT_FALSE(report.complete);
  CritpathOptions options;
  EXPECT_FALSE(check_gates(report, options).empty());
  options.allow_partial = true;
  EXPECT_TRUE(check_gates(report, options).empty());
}

TEST(Critpath, ThrowsWithoutIterationSpans) {
  TraceDoc doc;
  doc.events.push_back(span("aprod1", "kernel", 0, 0, 0, 10));
  EXPECT_THROW(analyze_critpath(doc), Error);
}

TEST(Critpath, RendersTableAndJson) {
  const CritpathReport report = analyze_critpath(two_rank_doc());
  const std::string table = to_string(report);
  EXPECT_NE(table.find("critpath_us"), std::string::npos);
  EXPECT_NE(table.find("total critical path"), std::string::npos);
  const std::string json = to_json(report);
  const util::JsonValue v = util::parse_json(json);
  ASSERT_NE(v.find("exposure_fraction"), nullptr);
  EXPECT_DOUBLE_EQ(v.find("exposure_fraction")->number,
                   report.exposure_fraction);
  ASSERT_TRUE(v.find("iterations")->is_array());
  EXPECT_EQ(v.find("iterations")->array.size(), 1u);
}

}  // namespace
}  // namespace gaia::obs
