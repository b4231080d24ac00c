/// Integration test of the paper's SV-A profiling claim: "most of the
/// time of this code is spent computing the matrix-by-vector products of
/// aprod1 and aprod2", read off the metrics registry the way
/// `gaia_solver --profile` reads it.
#include <gtest/gtest.h>

#include <set>

#include "core/lsqr.hpp"
#include "matrix/generator.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/profile.hpp"
#include "test_helpers.hpp"

namespace gaia::core {
namespace {

class SolverProfile : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::global().reset();
    obs::MetricsRegistry::global().set_enabled(true);
  }
  void TearDown() override {
    obs::MetricsRegistry::global().set_enabled(false);
    obs::MetricsRegistry::global().reset();
  }

  /// Launch count per kernel, from the kernel.*.time_seconds series.
  static std::map<std::string, std::uint64_t> kernel_launches() {
    std::map<std::string, std::uint64_t> launches;
    obs::KernelSeriesName k;
    for (const auto& r : obs::MetricsRegistry::global().snapshot())
      if (obs::parse_kernel_series(r.name, k) && k.field == "time_seconds")
        launches[k.kernel] += r.count;
    return launches;
  }

  static double split_seconds(const obs::IterationSplit& split,
                              const std::string& label) {
    for (const auto& p : split.parts)
      if (p.label == label) return p.seconds;
    ADD_FAILURE() << "no split part " << label;
    return 0;
  }
};

TEST_F(SolverProfile, AprodKernelsDominateTheIteration) {
  // Large-ish system so per-element work dwarfs instrumentation noise.
  auto cfg = gaia::testing::medium_config(150);
  cfg.n_stars = 1200;
  cfg.obs_per_star_mean = 30.0;
  const auto gen = matrix::generate_system(cfg);

  LsqrOptions opts;
  opts.aprod.backend = backends::BackendKind::kSerial;
  opts.aprod.use_streams = false;
  opts.max_iterations = 10;
  const auto result = lsqr_solve(gen.A, opts);
  ASSERT_EQ(result.iterations, 10);

  const auto rows = obs::MetricsRegistry::global().snapshot();
  const obs::IterationSplit split = obs::iteration_split(rows);
  EXPECT_EQ(split.iterations, 10u);
  // The paper's profiler observation (SV-A): aprod dominates.
  const double aprod = split_seconds(split, "aprod1 pass") +
                       split_seconds(split, "aprod2 pass");
  EXPECT_GT(aprod, 0.5 * split.iteration_s) << obs::profile_report(rows);
  // Every one of the eight kernels ran 10 (aprod1) / 10-11 (aprod2,
  // including the bidiagonalization start) times.
  const auto launches = kernel_launches();
  for (const auto& [kernel, count] : launches) {
    EXPECT_GE(count, 10u) << kernel;
    EXPECT_LE(count, 11u) << kernel;
  }
}

TEST_F(SolverProfile, AllEightKernelRegionsAppear) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(151));
  LsqrOptions opts;
  opts.aprod.backend = backends::BackendKind::kGpuSim;
  opts.max_iterations = 3;
  (void)lsqr_solve(gen.A, opts);
  std::set<std::string> kernels;
  for (const auto& [kernel, count] : kernel_launches()) kernels.insert(kernel);
  EXPECT_EQ(kernels, (std::set<std::string>{
                         "aprod1_astro", "aprod1_att", "aprod1_instr",
                         "aprod1_glob", "aprod2_astro", "aprod2_att",
                         "aprod2_instr", "aprod2_glob"}));
}

TEST_F(SolverProfile, BlasAndReductionRegionsTracked) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(152));
  LsqrOptions opts;
  opts.aprod.backend = backends::BackendKind::kSerial;
  opts.aprod.use_streams = false;
  opts.max_iterations = 5;
  (void)lsqr_solve(gen.A, opts);
  auto& reg = obs::MetricsRegistry::global();
  // Three scale sites, two norms and one update block per iteration.
  EXPECT_EQ(reg.histogram(obs::kBlas1ScaleSeconds).summary().count, 15u);
  EXPECT_EQ(reg.histogram(obs::kReductionSeconds).summary().count, 10u);
  EXPECT_EQ(reg.histogram(obs::kBlas1UpdatesSeconds).summary().count, 5u);
  const obs::IterationSplit split = obs::iteration_split(reg.snapshot());
  EXPECT_GT(split_seconds(split, "BLAS-1"), 0.0);
  EXPECT_GT(split_seconds(split, "reductions"), 0.0);
}

TEST_F(SolverProfile, DisabledRegistryLeavesNoSeries) {
  obs::MetricsRegistry::global().set_enabled(false);
  const auto gen = matrix::generate_system(gaia::testing::small_config(153));
  LsqrOptions opts;
  opts.aprod.backend = backends::BackendKind::kSerial;
  opts.max_iterations = 2;
  (void)lsqr_solve(gen.A, opts);
  // Series earlier tests created stay registered, zeroed (gauges always
  // report count 1); none may have moved.
  for (const auto& r : obs::MetricsRegistry::global().snapshot()) {
    EXPECT_EQ(r.sum, 0.0) << r.name;
    if (r.type != "gauge") EXPECT_EQ(r.count, 0u) << r.name;
  }
}

TEST_F(SolverProfile, StreamedSplitSharesSumToTheIterationWallTime) {
  // Four overlapped aprod2 scatters per pass: the split counts the pass
  // wall time once, so the shares reconcile with the iteration time.
  auto cfg = gaia::testing::medium_config(154);
  cfg.n_stars = 1200;
  cfg.obs_per_star_mean = 30.0;
  const auto gen = matrix::generate_system(cfg);
  LsqrOptions opts;
  opts.aprod.backend = backends::BackendKind::kGpuSim;
  opts.aprod.use_streams = true;
  opts.max_iterations = 10;
  opts.atol = 0;
  opts.btol = 0;
  const auto result = lsqr_solve(gen.A, opts);

  const auto rows = obs::MetricsRegistry::global().snapshot();
  const obs::IterationSplit split = obs::iteration_split(rows);
  ASSERT_EQ(split.iterations, 10u);
  double iteration_s = 0;
  for (double t : result.iteration_seconds) iteration_s += t;
  EXPECT_DOUBLE_EQ(split.iteration_s, iteration_s);
  EXPECT_NEAR(split.share_sum_pct(), 100.0, 2.0) << obs::profile_report(rows);
  // The streamed kernels themselves overlap: their summed time may
  // exceed the pass, which is why the split does not sum kernels.
  EXPECT_GT(split_seconds(split, "aprod2 pass"), 0.0);
}

}  // namespace
}  // namespace gaia::core
