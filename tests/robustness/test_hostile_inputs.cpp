/// \file test_hostile_inputs.cpp
/// \brief Every JSON reader against mutations of a document the repo
/// itself writes.
///
/// Seeds: a perf baseline, a tuning cache, a metrics snapshot, a
/// postmortem bundle and a trace (per-rank and merged). Mutations:
/// truncation at every byte offset, a duplicated key, `nan` / `1e999` /
/// `-1` in place of every number, and deep nesting. The property: each
/// reader returns its typed error or a value, and never crashes (CI runs
/// this binary under ASan+UBSan). The mutated documents are the seed
/// corpus for a mutation fuzzer.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "backends/kernel_config.hpp"
#include "metrics/perf_baseline.hpp"
#include "obs/critpath.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "obs/trace_merge.hpp"
#include "tuning/tuning_cache.hpp"
#include "util/error.hpp"

namespace gaia {
namespace {

/// One reader under test: true when it returned a value, false on its
/// typed error. Anything else (another exception type, a crash) fails.
struct Reader {
  std::string name;
  std::string seed;
  std::function<bool(const std::string&)> read;
};

bool throws_error(const std::function<void()>& f) {
  try {
    f();
  } catch (const Error&) {
    return true;
  }
  return false;
}

std::string baseline_seed() {
  metrics::PerfBaseline b;
  b.name = "smoke";
  metrics::KernelTiming t;
  t.kernel = "aprod1_astro";
  t.backend = "openmp";
  t.strategy = "none";
  t.median_seconds = 6.0487e-05;
  t.samples = 15;
  b.kernels.push_back(t);
  t.kernel = "aprod2_att";
  t.strategy = "privatized";
  t.layout = "soa_tiled";
  t.precision = "fp32";
  t.median_seconds = 1.3e-4;
  b.kernels.push_back(t);
  return b.to_json();
}

std::string tuning_cache_seed() {
  tuning::TuningCache cache;
  cache.put(backends::BackendKind::kGpuSim, {8, 7},
            backends::KernelId::kAprod2Att,
            {32, 32, backends::ScatterStrategy::kPrivatized,
             backends::StorageLayout::kSlicedInstr,
             backends::Precision::kFp32});
  cache.put(backends::BackendKind::kOpenMP, {8, 7},
            backends::KernelId::kAprod1Astro, {16, 128});
  return cache.to_json();
}

std::vector<obs::MetricRow> metric_rows() {
  std::vector<obs::MetricRow> rows(2);
  rows[0].name = "lsqr.rnorm";
  rows[0].type = "gauge";
  rows[0].count = 3;
  rows[0].sum = 0.25;
  rows[0].last = std::nan("");  // written as null
  rows[1].name = "kernel.aprod2_att.openmp.atomic.time_seconds";
  rows[1].type = "histogram";
  rows[1].count = 9;
  rows[1].sum = 0.5;
  rows[1].min = 0.01;
  rows[1].max = 0.2;
  rows[1].p50 = 0.05;
  rows[1].p95 = 0.15;
  rows[1].p99 = 0.2;
  return rows;
}

std::string snapshot_seed() {
  obs::SnapshotMeta meta;
  meta.rank = -1;
  meta.ranks = 4;
  meta.complete = false;
  return obs::snapshot_json(metric_rows(), meta);
}

std::string postmortem_seed() {
  obs::PostmortemBundle b;
  b.info = {"sdc-unrepaired", "invariant trip \"x\"\n", -1, 3};
  b.context = {{"backend", "openmp"}, {"seed", "1746"}};
  b.events_dropped = 2;
  obs::FlightEvent e;
  e.t_s = 0.5;
  e.seq = 7;
  e.rank = 1;
  e.iteration = 23;
  e.category = "fault";
  e.name = "solver.sdc";
  e.detail = "bit 62";
  b.events.push_back(e);
  b.metrics = metric_rows();
  b.trace_tail.push_back({"aprod2_att", "kernel", 'X', 10.5, 3.25});
  b.trace_dropped = 1;
  b.telemetry_tail = {"{\"t_s\":0.25,\"sample\":0}"};
  return obs::postmortem_json(b);
}

std::string rank_trace_seed(int rank) {
  obs::TraceRecorder rec;
  rec.set_enabled(true);
  rec.set_rank(rank, 2);
  rec.set_epoch_offset_us(12.5);
  rec.complete("lsqr.iteration", "lsqr", 10, 100, 0,
               {obs::TraceArg("itn", std::int64_t{0})});
  rec.complete("allreduce", "comm", 20, 30, 1000 + rank);
  rec.complete("allreduce.wait", "comm", 20, 10, 1000 + rank);
  rec.complete("allreduce.exchange", "comm", 30, 20, 1000 + rank);
  rec.instant("checkpoint", "resilience", 0,
              {obs::TraceArg("path", "ckpt \"0\"")});
  rec.counter("lsqr.rnorm", 111, 0.5);
  return rec.json();
}

std::string merged_trace_seed() {
  return obs::trace_json(obs::merge_traces(
      {obs::parse_trace_json(rank_trace_seed(0)),
       obs::parse_trace_json(rank_trace_seed(1))}));
}

bool read_trace(const std::string& text) {
  obs::TraceDoc doc;
  if (throws_error([&] { doc = obs::parse_trace_json(text); })) return false;
  // What gaia-critpath does next with an accepted document.
  if (throws_error([&] { obs::validate_trace(doc); })) return true;
  (void)throws_error([&] { (void)obs::analyze_critpath(doc); });
  return true;
}

std::vector<Reader> readers() {
  return {
      {"perf baseline", baseline_seed(),
       [](const std::string& t) {
         return !throws_error([&] { (void)metrics::parse_baseline(t); });
       }},
      {"tuning cache", tuning_cache_seed(),
       [](const std::string& t) {
         using Status = tuning::TuningCache::ParseStatus;
         Status status = Status::kOk;
         const bool ok = tuning::TuningCache::parse_json(t, &status).has_value();
         EXPECT_EQ(ok, status == Status::kOk);
         return ok;
       }},
      {"metrics snapshot", snapshot_seed(),
       [](const std::string& t) {
         return obs::parse_snapshot_json(t).has_value();
       }},
      {"postmortem bundle", postmortem_seed(),
       [](const std::string& t) {
         return !throws_error([&] { (void)obs::parse_postmortem_json(t); });
       }},
      {"rank trace", rank_trace_seed(1), read_trace},
      {"merged trace", merged_trace_seed(), read_trace},
  };
}

/// Byte ranges [begin, end) of every number token outside strings.
std::vector<std::pair<std::size_t, std::size_t>> number_tokens(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\')
        ++i;
      else if (c == '"')
        in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      std::size_t end = i;
      while (end < text.size() &&
             std::string("+-.eE0123456789").find(text[end]) !=
                 std::string::npos)
        ++end;
      out.emplace_back(i, end);
      i = end - 1;
    }
  }
  return out;
}

TEST(HostileInputs, SeedsParse) {
  for (const Reader& r : readers()) EXPECT_TRUE(r.read(r.seed)) << r.name;
}

TEST(HostileInputs, EveryTruncationIsATypedError) {
  for (const Reader& r : readers()) {
    // Every proper prefix that stops before the closing brace is torn.
    const std::size_t end = r.seed.rfind('}');
    for (std::size_t cut = 0; cut < end + 1; ++cut)
      ASSERT_FALSE(r.read(r.seed.substr(0, cut)))
          << r.name << " accepted a prefix of " << cut << " bytes";
  }
}

TEST(HostileInputs, DuplicatedKeysAreRejected) {
  for (const Reader& r : readers()) {
    // The root's first member ("version", or "displayTimeUnit" for
    // traces) twice: always an error.
    const std::size_t comma = r.seed.find(',');
    ASSERT_NE(comma, std::string::npos) << r.name;
    std::string dup = r.seed;
    dup.insert(comma + 1, r.seed.substr(1, comma));
    EXPECT_FALSE(r.read(dup)) << r.name << ": " << dup.substr(0, 80);
    // The first member of every nested object twice: an error or a
    // value (trace span args are a free-form tree), never a crash.
    for (std::size_t at = r.seed.find("{\"", 1); at != std::string::npos;
         at = r.seed.find("{\"", at + 1)) {
      const std::size_t next = r.seed.find_first_of(",}", at);
      if (r.seed[next] != ',') continue;
      const std::string member = r.seed.substr(at + 1, next - at);
      if (member.find_first_of("{[") != std::string::npos) continue;
      std::string nested = r.seed;
      nested.insert(next + 1, member);
      (void)r.read(nested);
    }
  }
}

TEST(HostileInputs, NonFiniteAndNegativeNumbersNeverCrash) {
  for (const Reader& r : readers()) {
    for (const auto& [begin, end] : number_tokens(r.seed)) {
      for (const std::string value : {"nan", "NaN", "1e999", "-1e999"}) {
        std::string bad = r.seed;
        bad.replace(begin, end - begin, value);
        EXPECT_FALSE(r.read(bad))
            << r.name << " accepted " << value << " at byte " << begin;
      }
      for (const std::string value :
           {"-1", "1e300", "-1e300", "0.5", "9223372036854775808"}) {
        std::string odd = r.seed;
        odd.replace(begin, end - begin, value);
        (void)r.read(odd);
      }
    }
  }
}

TEST(HostileInputs, DeepNestingIsATypedError) {
  for (const Reader& r : readers()) {
    EXPECT_FALSE(r.read(std::string(1000000, '['))) << r.name;
    EXPECT_FALSE(r.read(std::string(1000000, '{'))) << r.name;
    // A deep array in place of the first number of the document.
    const auto tokens = number_tokens(r.seed);
    ASSERT_FALSE(tokens.empty()) << r.name;
    const auto [begin, end] = tokens.front();
    std::string deep = r.seed;
    deep.replace(begin, end - begin,
                 std::string(100000, '[') + std::string(100000, ']'));
    EXPECT_FALSE(r.read(deep)) << r.name;
  }
}

}  // namespace
}  // namespace gaia
