#include "dist/dist_lsqr.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "core/lsqr_engine.hpp"
#include "matrix/dense.hpp"
#include "matrix/generator.hpp"
#include "test_helpers.hpp"

namespace gaia::dist {
namespace {

core::LsqrOptions solver_options() {
  core::LsqrOptions opts;
  opts.aprod.backend = backends::BackendKind::kSerial;
  opts.aprod.use_streams = false;
  opts.max_iterations = 300;
  opts.atol = 1e-12;
  opts.btol = 1e-12;
  return opts;
}

class DistLsqr : public ::testing::TestWithParam<int> {};

TEST_P(DistLsqr, MatchesSingleProcessSolution) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(100));
  const auto reference = core::lsqr_solve(gen.A, solver_options());

  DistLsqrOptions opts;
  opts.n_ranks = GetParam();
  opts.lsqr = solver_options();
  const auto dist = dist_lsqr_solve(gen.A, opts);

  EXPECT_LT(gaia::testing::rel_l2_error(dist.x, reference.x), 1e-8)
      << "ranks=" << GetParam();
}

TEST_P(DistLsqr, MatchesDenseLeastSquares) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(101));
  const auto M = matrix::to_dense(gen.A);
  const auto x_ref = matrix::dense_least_squares(
      M, gen.A.n_rows(), gen.A.n_cols(), gen.A.known_terms());

  DistLsqrOptions opts;
  opts.n_ranks = GetParam();
  opts.lsqr = solver_options();
  const auto dist = dist_lsqr_solve(gen.A, opts);
  EXPECT_LT(gaia::testing::rel_l2_error(dist.x, x_ref), 1e-6);
}

TEST_P(DistLsqr, StdErrorsMatchSingleProcess) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(102));
  auto single_opts = solver_options();
  // Fixed iteration count: the variance accumulator depends on the exact
  // iteration the solvers stop at, and at N ranks the reduction order can
  // move a stopping test across that boundary.
  single_opts.atol = 0;
  single_opts.btol = 0;
  single_opts.max_iterations = 200;
  single_opts.compute_std_errors = true;
  const auto reference = core::lsqr_solve(gen.A, single_opts);

  DistLsqrOptions opts;
  opts.n_ranks = GetParam();
  opts.lsqr = single_opts;
  const auto dist = dist_lsqr_solve(gen.A, opts);
  ASSERT_EQ(dist.std_errors.size(), reference.std_errors.size());
  // The variance accumulator is history-dependent: the Lanczos vectors'
  // trajectories diverge at roundoff level between the two reduction
  // orders and do not re-contract the way the solution does, so the
  // error *estimates* agree to ~1e-4, not 1e-8 (expected for LSQR).
  EXPECT_LT(gaia::testing::rel_l2_error(dist.std_errors,
                                        reference.std_errors),
            5e-3);
}

TEST_P(DistLsqr, IterationTimesAreMaxOverRanksAndPositive) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(103));
  DistLsqrOptions opts;
  opts.n_ranks = GetParam();
  opts.lsqr = solver_options();
  opts.lsqr.max_iterations = 10;
  opts.lsqr.atol = 0;
  opts.lsqr.btol = 0;
  const auto dist = dist_lsqr_solve(gen.A, opts);
  EXPECT_EQ(dist.iterations, 10);
  ASSERT_EQ(dist.iteration_seconds.size(), 10u);
  for (double t : dist.iteration_seconds) EXPECT_GT(t, 0.0);
  EXPECT_GT(dist.mean_iteration_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistLsqr, ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "ranks" + std::to_string(info.param);
                         });

TEST(DistLsqrParallelBackend, GpuSimBackendAgreesAcrossRanks) {
  // Parallel backend inside each rank + multi-rank reduction.
  const auto gen = matrix::generate_system(gaia::testing::small_config(104));
  auto opts_core = solver_options();
  opts_core.aprod.backend = backends::BackendKind::kGpuSim;
  opts_core.aprod.use_streams = true;
  const auto reference = core::lsqr_solve(gen.A, opts_core);

  DistLsqrOptions opts;
  opts.n_ranks = 3;
  opts.lsqr = opts_core;
  const auto dist = dist_lsqr_solve(gen.A, opts);
  EXPECT_LT(gaia::testing::rel_l2_error(dist.x, reference.x), 1e-7);
}

TEST(DistLsqrValidation, PartitionRecordedInResult) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(105));
  DistLsqrOptions opts;
  opts.n_ranks = 2;
  opts.lsqr = solver_options();
  opts.lsqr.max_iterations = 5;
  opts.lsqr.atol = 0;
  opts.lsqr.btol = 0;
  const auto dist = dist_lsqr_solve(gen.A, opts);
  EXPECT_EQ(dist.partition.n_ranks, 2);
  EXPECT_EQ(dist.partition.row_begin.back(), gen.A.n_obs());
}

TEST(DistLsqrValidation, ReducedPrecisionTableIsRefused) {
  // No refinement runs at several ranks: an fp32 solve would return the
  // perturbed system's solution, so the driver refuses it.
  const auto gen = matrix::generate_system(gaia::testing::small_config(106));
  DistLsqrOptions opts;
  opts.n_ranks = 2;
  opts.lsqr = solver_options();
  opts.lsqr.max_iterations = 5;
  backends::KernelConfig cfg =
      opts.lsqr.aprod.tuning.get(backends::KernelId::kAprod1Att);
  cfg.precision = backends::Precision::kFp32;
  opts.lsqr.aprod.tuning.set(backends::KernelId::kAprod1Att, cfg);
  EXPECT_THROW(dist_lsqr_solve(gen.A, opts), Error);
}

/// One rank of the distributed solve *is* the engine: same arithmetic,
/// same stopping tests, bit for bit — on a serial backend and on OpenMP
/// with the deterministic privatized scatter.
class DistOneRank : public ::testing::TestWithParam<backends::BackendKind> {
 protected:
  core::LsqrOptions options() const {
    core::LsqrOptions opts = solver_options();
    opts.aprod.backend = GetParam();
    for (backends::KernelId id : backends::all_kernels()) {
      backends::KernelConfig cfg = opts.aprod.tuning.get(id);
      cfg.strategy = backends::ScatterStrategy::kPrivatized;
      opts.aprod.tuning.set(id, cfg);
    }
    return opts;
  }
};

TEST_P(DistOneRank, BitIdenticalToTheEngine) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(106));
  const core::LsqrResult engine = core::lsqr_solve(gen.A, options());

  DistLsqrOptions opts;
  opts.n_ranks = 1;
  opts.lsqr = options();
  const DistLsqrResult dist = dist_lsqr_solve(gen.A, opts);

  EXPECT_EQ(dist.istop, engine.istop);
  EXPECT_EQ(dist.iterations, engine.iterations);
  EXPECT_EQ(dist.rnorm, engine.rnorm);
  ASSERT_EQ(dist.x.size(), engine.x.size());
  for (std::size_t i = 0; i < engine.x.size(); ++i)
    ASSERT_EQ(dist.x[i], engine.x[i]) << "element " << i;
  ASSERT_EQ(dist.std_errors.size(), engine.std_errors.size());
  for (std::size_t i = 0; i < engine.std_errors.size(); ++i)
    ASSERT_EQ(dist.std_errors[i], engine.std_errors[i]) << "element " << i;
}

TEST_P(DistOneRank, StopsForTheEnginesReasonAtTightTolerances) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(107));
  core::LsqrOptions lsqr = options();
  lsqr.atol = 1e-12;
  lsqr.btol = 1e-12;
  const core::LsqrResult engine = core::lsqr_solve(gen.A, lsqr);
  ASSERT_NE(engine.istop, core::LsqrStop::kIterationLimit);

  DistLsqrOptions opts;
  opts.n_ranks = 1;
  opts.lsqr = lsqr;
  EXPECT_EQ(dist_lsqr_solve(gen.A, opts).istop, engine.istop);
}

INSTANTIATE_TEST_SUITE_P(Backends, DistOneRank,
                         ::testing::Values(backends::BackendKind::kSerial,
                                           backends::BackendKind::kOpenMP),
                         [](const auto& info) {
                           return backends::to_string(info.param);
                         });

/// One checkpoint format for every rank count: u is stored over all rows
/// and the fingerprint covers the global system.
class DistCheckpoint : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("gaia_dist_ckpt_") + info->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DistLsqrOptions options(int ranks, std::int64_t iterations) const {
    DistLsqrOptions opts;
    opts.n_ranks = ranks;
    opts.lsqr = solver_options();
    opts.lsqr.max_iterations = iterations;
    opts.checkpoint.directory = dir_.string();
    opts.checkpoint.every = 5;
    return opts;
  }

  std::filesystem::path dir_;
};

TEST_F(DistCheckpoint, ThreeRankCheckpointResumesOnTwoAndOneRanks) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(108));
  DistLsqrOptions uninterrupted = options(3, 300);
  uninterrupted.checkpoint = {};
  const DistLsqrResult reference = dist_lsqr_solve(gen.A, uninterrupted);

  for (int ranks : {2, 1}) {
    std::filesystem::remove_all(dir_);
    // Interrupted: 8 iterations seal the iteration-5 checkpoint.
    const DistLsqrResult first = dist_lsqr_solve(gen.A, options(3, 8));
    ASSERT_EQ(first.checkpoints_written, 1u);

    const DistLsqrResult resumed = dist_lsqr_solve(gen.A, options(ranks, 300));
    EXPECT_EQ(resumed.resumed_from_iteration, 5) << "ranks=" << ranks;
    EXPECT_EQ(resumed.istop, reference.istop) << "ranks=" << ranks;
    EXPECT_LT(gaia::testing::rel_l2_error(resumed.x, reference.x), 1e-8)
        << "ranks=" << ranks;
  }
}

TEST_F(DistCheckpoint, SingleProcessAndOneRankCheckpointsRestoreIntoEachOther) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(109));
  const core::LsqrResult reference = core::lsqr_solve(gen.A, solver_options());
  const auto expect_reference = [&](std::span<const real> x) {
    ASSERT_EQ(x.size(), reference.x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      ASSERT_EQ(x[i], reference.x[i]) << "element " << i;
  };

  // A 1-rank dist checkpoint resumes in the single-process engine.
  (void)dist_lsqr_solve(gen.A, options(1, 12));
  resilience::CheckpointManager manager(options(1, 12).checkpoint);
  core::LsqrEngine engine(gen.A, solver_options());
  EXPECT_EQ(core::resume_newest(engine, manager), 10);
  engine.run_to_completion();
  expect_reference(engine.result().x);

  // A single-process checkpoint resumes on one dist rank.
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
  core::LsqrEngine interrupted(gen.A, solver_options());
  for (int i = 0; i < 7; ++i) interrupted.step();
  std::ostringstream payload(std::ios::binary);
  interrupted.checkpoint(payload);
  manager.write(7, payload.view());
  const DistLsqrResult resumed = dist_lsqr_solve(gen.A, options(1, 300));
  EXPECT_EQ(resumed.resumed_from_iteration, 7);
  EXPECT_EQ(resumed.istop, reference.istop);
  expect_reference(resumed.x);
}

}  // namespace
}  // namespace gaia::dist
