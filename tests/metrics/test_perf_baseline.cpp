/// \file test_perf_baseline.cpp
/// \brief Baseline JSON round-trips and perf-gate verdict semantics.
#include "metrics/perf_baseline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "util/error.hpp"

namespace gaia::metrics {
namespace {

KernelTiming timing(const std::string& kernel, double seconds,
                    const std::string& backend = "openmp",
                    const std::string& strategy = "none") {
  KernelTiming t;
  t.kernel = kernel;
  t.backend = backend;
  t.strategy = strategy;
  t.median_seconds = seconds;
  t.samples = 9;
  return t;
}

PerfBaseline baseline_of(std::initializer_list<KernelTiming> kernels) {
  PerfBaseline b;
  b.name = "smoke";
  b.kernels = kernels;
  return b;
}

TEST(PerfBaseline, JsonRoundTrip) {
  PerfBaseline b = baseline_of({
      timing("aprod1_astro", 1.25e-3),
      timing("aprod2_att", 4.5e-4, "gpusim", "privatized"),
  });
  const PerfBaseline back = parse_baseline(b.to_json());
  EXPECT_EQ(back.name, "smoke");
  ASSERT_EQ(back.kernels.size(), 2u);
  EXPECT_EQ(back.kernels[0].kernel, "aprod1_astro");
  EXPECT_DOUBLE_EQ(back.kernels[0].median_seconds, 1.25e-3);
  EXPECT_EQ(back.kernels[0].samples, 9u);
  EXPECT_EQ(back.kernels[1].backend, "gpusim");
  EXPECT_EQ(back.kernels[1].strategy, "privatized");

  const KernelTiming* found = back.find("aprod2_att", "gpusim", "privatized");
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->median_seconds, 4.5e-4);
  EXPECT_EQ(back.find("aprod2_att", "openmp", "privatized"), nullptr);
}

TEST(PerfBaseline, ParseRejectsMalformedInput) {
  EXPECT_THROW(parse_baseline(""), Error);
  EXPECT_THROW(parse_baseline("not json"), Error);
  EXPECT_THROW(parse_baseline("{\"version\":2,\"name\":\"x\",\"kernels\":[]}"),
               Error);
  EXPECT_THROW(
      parse_baseline("{\"version\":1,\"name\":\"x\",\"kernels\":[],"
                     "\"surprise\":1}"),
      Error);
  // Truncated document.
  const std::string good = baseline_of({timing("a", 1.0)}).to_json();
  EXPECT_THROW(parse_baseline(good.substr(0, good.size() / 2)), Error);
}

TEST(PerfGate, IdenticalRunsPass) {
  const PerfBaseline b = baseline_of({timing("a", 1.0), timing("b", 2.0)});
  const GateReport report = perf_gate(b, b);
  EXPECT_TRUE(report.pass);
  EXPECT_TRUE(report.regressions.empty());
  EXPECT_TRUE(report.improvements.empty());
  EXPECT_TRUE(report.missing.empty());
}

TEST(PerfGate, FlagsSlowdownBeyondTolerance) {
  const PerfBaseline base = baseline_of({timing("a", 1.0), timing("b", 1.0)});
  const PerfBaseline next = baseline_of({timing("a", 2.0), timing("b", 1.1)});
  const GateReport report = perf_gate(base, next);  // tolerance 0.25
  EXPECT_FALSE(report.pass);
  ASSERT_EQ(report.regressions.size(), 1u);
  EXPECT_EQ(report.regressions[0].kernel, "a");
  EXPECT_DOUBLE_EQ(report.regressions[0].ratio, 2.0);
  EXPECT_NE(report.to_string().find("REGRESSION"), std::string::npos);
}

TEST(PerfGate, ToleranceBoundaryIsInclusive) {
  const PerfBaseline base = baseline_of({timing("a", 1.0)});
  GateOptions opts;
  opts.tolerance = 0.25;
  // Exactly at the edge: allowed.
  EXPECT_TRUE(perf_gate(base, baseline_of({timing("a", 1.25)}), opts).pass);
  // Just past it: regression.
  EXPECT_FALSE(perf_gate(base, baseline_of({timing("a", 1.26)}), opts).pass);
  // Generous tolerance admits a 2x slowdown.
  opts.tolerance = 1.5;
  EXPECT_TRUE(perf_gate(base, baseline_of({timing("a", 2.0)}), opts).pass);
}

TEST(PerfGate, ClassifiesImprovements) {
  const PerfBaseline base = baseline_of({timing("a", 1.0)});
  const GateReport report = perf_gate(base, baseline_of({timing("a", 0.5)}));
  EXPECT_TRUE(report.pass);  // faster is never a failure
  ASSERT_EQ(report.improvements.size(), 1u);
  EXPECT_DOUBLE_EQ(report.improvements[0].ratio, 0.5);
}

TEST(PerfGate, MissingSeriesFailsUnlessAllowed) {
  const PerfBaseline base = baseline_of({timing("a", 1.0), timing("b", 1.0)});
  const PerfBaseline next = baseline_of({timing("a", 1.0)});
  const GateReport strict = perf_gate(base, next);
  EXPECT_FALSE(strict.pass);
  ASSERT_EQ(strict.missing.size(), 1u);
  EXPECT_EQ(strict.missing[0].kernel, "b");

  GateOptions opts;
  opts.allow_missing = true;
  const GateReport lax = perf_gate(base, next, opts);
  EXPECT_TRUE(lax.pass);
  EXPECT_EQ(lax.missing.size(), 1u);  // still reported, just not fatal
}

TEST(PerfGate, NewOnlySeriesAreIgnored) {
  const PerfBaseline base = baseline_of({timing("a", 1.0)});
  const PerfBaseline next =
      baseline_of({timing("a", 1.0), timing("brand_new", 99.0)});
  const GateReport report = perf_gate(base, next);
  EXPECT_TRUE(report.pass);
  EXPECT_TRUE(report.regressions.empty());
}

/// parse_baseline's error text, or "" when the document parses.
std::string parse_error(const std::string& json) {
  try {
    (void)parse_baseline(json);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(PerfBaseline, ParseRejectsValuesThatWouldFoolTheGate) {
  const std::string good = baseline_of({timing("a", 1.0)}).to_json();
  ASSERT_EQ(parse_error(good), "");
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string doc = good;
    doc.replace(doc.find(from), from.size(), to);
    return parse_error(doc);
  };
  // A NaN median compares false against every bound, so it used to pass
  // the gate; JSON has no NaN, and the writer's own "nan" is no better.
  EXPECT_NE(with("\"median_seconds\": 1", "\"median_seconds\": NaN"), "");
  PerfBaseline nan_median = baseline_of({timing("a", 1.0)});
  nan_median.kernels[0].median_seconds =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(parse_error(nan_median.to_json()), "");
  EXPECT_NE(with("\"median_seconds\": 1", "\"median_seconds\": 1e999"), "");
  EXPECT_NE(with("\"median_seconds\": 1", "\"median_seconds\": -1"), "");
  EXPECT_NE(with("\"samples\": 9", "\"samples\": -1"), "");
  EXPECT_NE(with("\"samples\": 9", "\"samples\": 1.5"), "");
  EXPECT_NE(with("\"samples\": 9", "\"samples\": \"9\""), "");
  EXPECT_NE(with("\"version\": 1,", "\"version\": 1, \"version\": 1,"), "");
  EXPECT_NE(with("\"kernel\": \"a\"", "\"kernel\": \"a\", \"kernel\": \"b\""),
            "");
  EXPECT_NE(with("\"name\": \"smoke\",", ""), "");  // required key
}

TEST(PerfBaseline, ParseErrorsArePlainMessages) {
  const std::string good = baseline_of({timing("a", 1.0)}).to_json();
  // Every proper prefix up to the closing brace is a torn file.
  for (std::size_t cut = 0; cut < good.rfind('}'); ++cut) {
    const std::string what = parse_error(good.substr(0, cut));
    ASSERT_NE(what, "") << "truncated at " << cut;
    EXPECT_EQ(what.find("check failed"), std::string::npos) << what;
    EXPECT_EQ(what.find(".cpp"), std::string::npos) << what;
  }
  const std::string dup =
      parse_error("{\"version\":1,\"version\":1,\"name\":\"x\",\"kernels\":[]}");
  EXPECT_NE(dup.find("'version'"), std::string::npos) << dup;
}

TEST(PerfBaseline, SeriesWithoutLayoutOrPrecisionKeepTheSeedDefaults) {
  const PerfBaseline b = parse_baseline(
      "{\"version\":1,\"name\":\"old\",\"kernels\":[{\"kernel\":\"a\","
      "\"backend\":\"openmp\",\"strategy\":\"none\",\"median_seconds\":1,"
      "\"samples\":3}]}");
  ASSERT_EQ(b.kernels.size(), 1u);
  EXPECT_EQ(b.kernels[0].layout, "seed_aos");
  EXPECT_EQ(b.kernels[0].precision, "fp64");
}

}  // namespace
}  // namespace gaia::metrics
