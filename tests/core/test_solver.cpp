#include "core/solver.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace gaia::core {
namespace {

TEST(Solver, RunsEndToEndWithFootprintSizing) {
  SolverRunConfig cfg;
  cfg.footprint_bytes = 8 * kMiB;
  cfg.lsqr.max_iterations = 5;
  cfg.lsqr.aprod.backend = backends::BackendKind::kGpuSim;
  const auto report = run_solver(cfg);
  EXPECT_EQ(report.result.iterations, 5);
  EXPECT_GT(report.n_obs, 0);
  const double ratio = static_cast<double>(report.system_bytes) /
                       static_cast<double>(cfg.footprint_bytes);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.2);
  EXPECT_GT(report.generation_seconds, 0.0);
  EXPECT_GT(report.solve_seconds, 0.0);
}

TEST(Solver, ExplicitGeneratorConfigWins) {
  SolverRunConfig cfg;
  cfg.generator = gaia::testing::small_config(80);
  cfg.footprint_bytes = 999 * kMiB;  // must be ignored
  cfg.lsqr.max_iterations = 3;
  cfg.lsqr.aprod.backend = backends::BackendKind::kSerial;
  const auto report = run_solver(cfg);
  EXPECT_EQ(report.layout.n_stars(), cfg.generator->n_stars);
  EXPECT_LT(report.system_bytes, kMiB);
}

TEST(Solver, SummaryMentionsKeyQuantities) {
  SolverRunConfig cfg;
  cfg.generator = gaia::testing::small_config(81);
  cfg.lsqr.max_iterations = 2;
  cfg.lsqr.aprod.backend = backends::BackendKind::kSerial;
  const auto report = run_solver(cfg);
  const std::string s = report.summary();
  EXPECT_NE(s.find("iterations"), std::string::npos);
  EXPECT_NE(s.find("observations"), std::string::npos);
  EXPECT_NE(s.find("mean iteration time"), std::string::npos);
}

TEST(Solver, SameSeedSameSolution) {
  SolverRunConfig cfg;
  cfg.generator = gaia::testing::small_config(82);
  cfg.lsqr.max_iterations = 10;
  cfg.lsqr.aprod.backend = backends::BackendKind::kSerial;
  const auto a = run_solver(cfg);
  const auto b = run_solver(cfg);
  ASSERT_EQ(a.result.x.size(), b.result.x.size());
  for (std::size_t i = 0; i < a.result.x.size(); ++i)
    EXPECT_EQ(a.result.x[i], b.result.x[i]);  // bitwise: serial backend
}

TEST(Solver, PrecisionModeGrammarMirrorsTheLayoutGrammar) {
  // Canonical tokens plus the CLI short forms, exactly the grammar the
  // cache JSON and --precision share.
  const auto parse = [](const std::string& token)
      -> std::optional<PrecisionMode> {
    SolverRunConfig cfg;
    if (!set_axis_mode(cfg, backends::kPrecisionAxis, token))
      return std::nullopt;
    return cfg.precision;
  };
  EXPECT_EQ(parse("fp64"), PrecisionMode::kFp64);
  EXPECT_EQ(parse("double"), PrecisionMode::kFp64);
  EXPECT_EQ(parse("f64"), PrecisionMode::kFp64);
  EXPECT_EQ(parse("fp32"), PrecisionMode::kFp32);
  EXPECT_EQ(parse("single"), PrecisionMode::kFp32);
  EXPECT_EQ(parse("float"), PrecisionMode::kFp32);
  EXPECT_EQ(parse("bf16s"), PrecisionMode::kBf16s);
  EXPECT_EQ(parse("bf16"), PrecisionMode::kBf16s);
  EXPECT_EQ(parse("bfloat16"), PrecisionMode::kBf16s);
  EXPECT_EQ(parse("auto"), PrecisionMode::kAuto);
  // Bad tokens: rejected with the config untouched, so the caller can
  // report the value *and* its origin (flag vs env) — the
  // positioned-error contract.
  EXPECT_FALSE(parse("fp16").has_value());
  EXPECT_FALSE(parse("FP32").has_value());
  EXPECT_FALSE(parse("").has_value());
  EXPECT_FALSE(parse("mixed").has_value());
  SolverRunConfig cfg;
  cfg.precision = PrecisionMode::kFp32;
  EXPECT_FALSE(set_axis_mode(cfg, backends::kPrecisionAxis, "fp16"));
  EXPECT_EQ(cfg.precision, PrecisionMode::kFp32);
}

TEST(Solver, EveryAxisTokenParsesToItsArm) {
  // Per axis: every canonical token and alias selects its arm (arm i is
  // enum value i), the canonical token is what to_string prints, and
  // each mode also accepts "auto".
  for (std::size_t a = 0; a < backends::kNumAxes; ++a) {
    const backends::TuningAxis& axis = backends::tuning_axes()[a];
    for (int arm = 0; arm < axis.num_arms(); ++arm) {
      for (const std::string& token :
           axis.arms[static_cast<std::size_t>(arm)]) {
        EXPECT_EQ(axis.parse(token), arm) << axis.name << ' ' << token;
        SolverRunConfig cfg;
        ASSERT_TRUE(set_axis_mode(cfg, a, token)) << token;
        EXPECT_EQ(axis_modes(cfg)[a], arm) << axis.name << ' ' << token;
      }
      backends::KernelConfig kc;
      axis.set(kc, arm);
      EXPECT_EQ(axis.get(kc), arm);
    }
    SolverRunConfig cfg;
    ASSERT_TRUE(set_axis_mode(cfg, a, "auto")) << axis.name;
    EXPECT_FALSE(axis_modes(cfg)[a].has_value()) << axis.name;
    EXPECT_FALSE(axis.parse("auto").has_value()) << axis.name;
  }
  using backends::to_string;
  EXPECT_EQ(to_string(backends::ScatterStrategy::kAtomic), "atomic");
  EXPECT_EQ(to_string(backends::ScatterStrategy::kPrivatized), "privatized");
  EXPECT_EQ(to_string(backends::StorageLayout::kSeedAos), "seed_aos");
  EXPECT_EQ(to_string(backends::StorageLayout::kSoaTiled), "soa_tiled");
  EXPECT_EQ(to_string(backends::StorageLayout::kSlicedInstr), "sliced_instr");
  EXPECT_EQ(to_string(backends::Precision::kFp64), "fp64");
  EXPECT_EQ(to_string(backends::Precision::kFp32), "fp32");
  EXPECT_EQ(to_string(backends::Precision::kBf16s), "bf16s");
  // The short CLI forms reach the same arms as the canonical tokens.
  SolverRunConfig cfg;
  ASSERT_TRUE(set_axis_mode(cfg, backends::kLayoutAxis, "sliced"));
  EXPECT_EQ(cfg.storage_layout, LayoutMode::kSliced);
  ASSERT_TRUE(set_axis_mode(cfg, backends::kLayoutAxis, "soa"));
  EXPECT_EQ(cfg.storage_layout, LayoutMode::kSoa);
  ASSERT_TRUE(set_axis_mode(cfg, backends::kScatterAxis, "privatized"));
  EXPECT_EQ(cfg.scatter, ScatterMode::kPrivatized);
  EXPECT_FALSE(set_axis_mode(cfg, backends::kScatterAxis, "fp32"));
}

TEST(Solver, ReducedPrecisionRunRefinesAndReportsIt) {
  SolverRunConfig cfg;
  cfg.generator = gaia::testing::small_config(83);
  cfg.lsqr.max_iterations = 200;
  cfg.lsqr.atol = 1e-12;
  cfg.lsqr.btol = 1e-12;
  cfg.lsqr.aprod.backend = backends::BackendKind::kSerial;
  cfg.precision = PrecisionMode::kFp32;
  const auto report = run_solver(cfg);
  EXPECT_TRUE(report.refinement_ran);
  EXPECT_TRUE(report.refinement.converged);
  EXPECT_FALSE(report.precision_fell_back);
  for (backends::KernelId id : backends::all_kernels())
    EXPECT_EQ(report.tuning_used.get(id).precision,
              backends::Precision::kFp32);
  const std::string s = report.summary();
  EXPECT_NE(s.find("precision: fp32"), std::string::npos);
  EXPECT_NE(s.find("refine:"), std::string::npos);
  EXPECT_NE(s.find("converged"), std::string::npos);

  // The refined solution matches a pure-FP64 run of the same problem.
  SolverRunConfig fp64_cfg = cfg;
  fp64_cfg.precision = PrecisionMode::kFp64;
  const auto fp64_report = run_solver(fp64_cfg);
  EXPECT_FALSE(fp64_report.refinement_ran);
  EXPECT_LT(gaia::testing::rel_l2_error(report.result.x,
                                        fp64_report.result.x),
            1e-6);
}

TEST(Solver, StalledRefinementFallsBackToFp64AndSaysSo) {
  SolverRunConfig cfg;
  cfg.generator = gaia::testing::small_config(84);
  cfg.lsqr.max_iterations = 150;
  cfg.lsqr.aprod.backend = backends::BackendKind::kSerial;
  cfg.precision = PrecisionMode::kBf16s;
  cfg.refine.max_corrections = 1;
  cfg.refine.tolerance = 1e-300;  // unreachable -> guaranteed stall
  const auto report = run_solver(cfg);
  EXPECT_TRUE(report.refinement_ran);
  EXPECT_FALSE(report.refinement.converged);
  EXPECT_TRUE(report.precision_fell_back);
  // The fallback re-solve runs — and is reported — in full precision.
  for (backends::KernelId id : backends::all_kernels())
    EXPECT_EQ(report.tuning_used.get(id).precision,
              backends::Precision::kFp64);
  const std::string s = report.summary();
  EXPECT_NE(s.find("fell back to fp64"), std::string::npos);
}

}  // namespace
}  // namespace gaia::core
