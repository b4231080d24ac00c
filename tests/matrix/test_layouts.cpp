/// \file test_layouts.cpp
/// \brief Storage-layout suite: structural invariants of the derived
/// SoA-tiled and sliced-instrumental formats, numerical equivalence of
/// every (layout, strategy, backend) combination with the serial seed
/// reference, bit-identical fixed-config repeats, and the launcher's
/// clamp-to-seed fallback when derived arrays are not attached.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "backends/scratch_arena.hpp"
#include "core/kernel_catalog.hpp"
#include "core/system_view.hpp"
#include "matrix/generator.hpp"
#include "matrix/layouted_system.hpp"
#include "matrix/storage_layout.hpp"
#include "test_helpers.hpp"
#include "tuning/kernel_registry.hpp"
#include "util/rng.hpp"

namespace gaia::matrix {
namespace {

using backends::BackendKind;
using backends::KernelConfig;
using backends::KernelId;
using backends::ScatterStrategy;

TEST(LayoutedSystem, SeedBuildIsANoop) {
  const auto gen = generate_system(gaia::testing::small_config(61));
  LayoutedSystem layouts(gen.A);
  EXPECT_TRUE(layouts.has(StorageLayout::kSeedAos));
  layouts.build(StorageLayout::kSeedAos);
  EXPECT_FALSE(layouts.has(StorageLayout::kSoaTiled));
  EXPECT_FALSE(layouts.has(StorageLayout::kSlicedInstr));
  EXPECT_EQ(layouts.derived_bytes(), 0u);
}

TEST(LayoutedSystem, SoaPaddingInvariants) {
  const auto gen = generate_system(gaia::testing::medium_config(62));
  LayoutedSystem layouts(gen.A);
  layouts.build(StorageLayout::kSoaTiled);
  ASSERT_TRUE(layouts.has(StorageLayout::kSoaTiled));
  const SoaStreams& soa = layouts.soa();
  EXPECT_EQ(soa.n_rows, gen.A.n_rows());
  EXPECT_GE(soa.padded_rows, soa.n_rows);
  EXPECT_EQ(soa.padded_rows % kSoaTileRows, 0);
  EXPECT_LT(soa.padded_rows - soa.n_rows, kSoaTileRows);
  const auto padded = static_cast<std::size_t>(soa.padded_rows);
  EXPECT_EQ(soa.astro.size(), kAstroNnzPerRow * padded);
  EXPECT_EQ(soa.att.size(), kAttNnzPerRow * padded);
  EXPECT_EQ(soa.instr.size(), kInstrNnzPerRow * padded);
  EXPECT_EQ(soa.glob.size(), padded);
  // Padded tail rows carry zero coefficients (the glob stream has one
  // plane, so its flat index is just the row).
  for (row_index r = soa.n_rows; r < soa.padded_rows; ++r)
    EXPECT_EQ(soa.glob[static_cast<std::size_t>(r)], 0.0);
}

TEST(LayoutedSystem, SlicedPermutationIsBijective) {
  const auto gen = generate_system(gaia::testing::medium_config(63));
  LayoutedSystem layouts(gen.A);
  layouts.build(StorageLayout::kSlicedInstr);
  ASSERT_TRUE(layouts.has(StorageLayout::kSlicedInstr));
  const SlicedInstr& s = layouts.sliced();
  EXPECT_EQ(s.n_rows, gen.A.n_rows());
  EXPECT_GE(s.n_slices * kSliceHeight, s.n_rows);
  ASSERT_EQ(s.slice_rows.size(),
            static_cast<std::size_t>(s.n_slices * kSliceHeight));
  ASSERT_EQ(s.row_slot.size(), static_cast<std::size_t>(s.n_rows));

  // Every real row occupies exactly one lane; padded lanes are -1.
  std::set<row_index> seen;
  std::int64_t padded = 0;
  for (std::size_t slot = 0; slot < s.slice_rows.size(); ++slot) {
    const row_index r = s.slice_rows[slot];
    if (r < 0) {
      ++padded;
      continue;
    }
    ASSERT_LT(r, s.n_rows);
    EXPECT_TRUE(seen.insert(r).second) << "row " << r << " in two lanes";
    // The inverse permutation agrees with the forward one.
    EXPECT_EQ(s.row_slot[static_cast<std::size_t>(r)],
              static_cast<row_index>(slot));
  }
  EXPECT_EQ(static_cast<row_index>(seen.size()), s.n_rows);
  EXPECT_EQ(padded, s.n_slices * kSliceHeight - s.n_rows);
}

TEST(LayoutedSystem, BuildIsIdempotentAndDeterministic) {
  const auto gen = generate_system(gaia::testing::medium_config(64));
  LayoutedSystem a(gen.A);
  a.build(StorageLayout::kSlicedInstr);
  const byte_size bytes_once = a.derived_bytes();
  a.build(StorageLayout::kSlicedInstr);  // idempotent: no growth
  a.build(StorageLayout::kSoaTiled);
  EXPECT_EQ(a.derived_bytes(), bytes_once);

  // Same matrix -> bit-identical derived arrays (the slice permutation
  // is part of fixed-config reproducibility).
  LayoutedSystem b(gen.A);
  b.build(StorageLayout::kSlicedInstr);
  EXPECT_EQ(a.soa().att, b.soa().att);
  EXPECT_EQ(a.sliced().slice_values, b.sliced().slice_values);
  EXPECT_EQ(a.sliced().slice_rows, b.sliced().slice_rows);
  EXPECT_EQ(a.sliced().row_slot, b.sliced().row_slot);
}

TEST(LayoutedSystem, PaddedVsCompactedByteAccounting) {
  const auto gen = generate_system(gaia::testing::medium_config(65));
  LayoutedSystem layouts(gen.A);
  layouts.build(StorageLayout::kSlicedInstr);
  const byte_size compacted = layouts.compacted_coefficient_bytes();
  EXPECT_EQ(compacted, static_cast<byte_size>(gen.A.n_rows()) * kNnzPerRow *
                           sizeof(real));
  // The seed's line-granular records charge at least the information
  // content; the SoA padding only adds a partial tile's tail.
  EXPECT_GE(layouts.padded_coefficient_bytes(StorageLayout::kSeedAos),
            compacted);
  EXPECT_GE(layouts.padded_coefficient_bytes(StorageLayout::kSoaTiled),
            compacted);
  EXPECT_LT(layouts.padded_coefficient_bytes(StorageLayout::kSoaTiled),
            compacted + kSoaTileRows * kNnzPerRow * sizeof(real));
}

/// Fixture for the equivalence sweep: one medium system, its derived
/// layouts, and the serial seed-layout result as the reference for both
/// aprod directions. All launches go through the production registry.
class LayoutEquivalence : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    core::ensure_kernel_catalog();
    gen_ = generate_system(gaia::testing::medium_config(67));
    layouts_ = std::make_unique<LayoutedSystem>(gen_.A);
    layouts_->build(StorageLayout::kSlicedInstr);
    view_ = core::SystemView::from(gen_.A);
    view_.attach_layout(*layouts_);

    util::Xoshiro256 rng(29);
    x_.resize(static_cast<std::size_t>(gen_.A.n_cols()));
    y_.resize(static_cast<std::size_t>(gen_.A.n_rows()));
    for (auto& v : x_) v = rng.normal();
    for (auto& v : y_) v = rng.normal();

    ref_y_ = run_aprod1(BackendKind::kSerial, {});
    ref_x_ = run_aprod2(BackendKind::kSerial, {});
  }

  std::vector<real> run_aprod1(BackendKind backend, KernelConfig cfg,
                               const core::SystemView* view = nullptr) {
    std::vector<real> y(y_.size(), 0.0);
    launch_group(backend, cfg, view ? *view : view_, KernelId::kAprod1Astro,
                 KernelId::kAprod1Glob, x_.data(), y.data());
    return y;
  }

  std::vector<real> run_aprod2(BackendKind backend, KernelConfig cfg,
                               const core::SystemView* view = nullptr) {
    std::vector<real> x(x_.size(), 0.0);
    launch_group(backend, cfg, view ? *view : view_, KernelId::kAprod2Astro,
                 KernelId::kAprod2Glob, y_.data(), x.data());
    return x;
  }

  matrix::GeneratedSystem gen_;
  std::unique_ptr<LayoutedSystem> layouts_;
  core::SystemView view_{};
  std::vector<real> x_, y_;
  std::vector<real> ref_y_, ref_x_;

 private:
  void launch_group(BackendKind backend, KernelConfig cfg,
                    const core::SystemView& view, KernelId first,
                    KernelId last, const real* in, real* out) {
    const auto& registry = tuning::KernelRegistry::global();
    backends::ScratchArena arena;
    for (int k = static_cast<int>(first); k <= static_cast<int>(last); ++k) {
      tuning::LaunchArgs args;
      args.view = &view;
      args.in = in;
      args.out = out;
      args.config = cfg;
      args.arena = &arena;
      registry.launch(static_cast<KernelId>(k), backend, args);
    }
  }
};

TEST_P(LayoutEquivalence, AllLayoutsAndStrategiesMatchSerialSeed) {
  for (int li = 0; li < kNumStorageLayouts; ++li) {
    for (const ScatterStrategy strategy :
         {ScatterStrategy::kAtomic, ScatterStrategy::kPrivatized}) {
      KernelConfig cfg{64, 32, strategy,
                       static_cast<StorageLayout>(li)};
      const auto y = run_aprod1(GetParam(), cfg);
      const auto x = run_aprod2(GetParam(), cfg);
      const std::string what = backends::to_string(cfg.layout) + "/" +
                               backends::to_string(strategy) + "/" +
                               backends::to_string(GetParam());
      EXPECT_LT(gaia::testing::rel_l2_error(y, ref_y_), 1e-12) << what;
      EXPECT_LT(gaia::testing::rel_l2_error(x, ref_x_), 1e-12) << what;
    }
  }
}

TEST_P(LayoutEquivalence, FixedConfigRepeatsAreBitIdentical) {
  // A fixed (layout, strategy, shape) config is a reproducibility
  // contract: repeats agree to the last bit, whatever the layout.
  for (int li = 0; li < kNumStorageLayouts; ++li) {
    const KernelConfig cfg{64, 32, ScatterStrategy::kPrivatized,
                           static_cast<StorageLayout>(li)};
    const auto y0 = run_aprod1(GetParam(), cfg);
    const auto x0 = run_aprod2(GetParam(), cfg);
    for (int repeat = 0; repeat < 3; ++repeat) {
      const auto y = run_aprod1(GetParam(), cfg);
      const auto x = run_aprod2(GetParam(), cfg);
      for (std::size_t i = 0; i < y.size(); ++i)
        ASSERT_EQ(y[i], y0[i]) << "y[" << i << "] layout " << li;
      for (std::size_t i = 0; i < x.size(); ++i)
        ASSERT_EQ(x[i], x0[i]) << "x[" << i << "] layout " << li;
    }
  }
}

TEST_P(LayoutEquivalence, UnattachedLayoutClampsToSeedSemantics) {
  // A view without derived arrays keeps seed semantics: the launcher
  // clamps the config instead of dereferencing null descriptors.
  core::SystemView bare = core::SystemView::from(gen_.A);
  ASSERT_FALSE(bare.has_layout(StorageLayout::kSoaTiled));
  const KernelConfig cfg{64, 32, ScatterStrategy::kAtomic,
                         StorageLayout::kSoaTiled};
  const auto y = run_aprod1(GetParam(), cfg, &bare);
  const auto x = run_aprod2(GetParam(), cfg, &bare);
  EXPECT_LT(gaia::testing::rel_l2_error(y, ref_y_), 1e-12);
  EXPECT_LT(gaia::testing::rel_l2_error(x, ref_x_), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, LayoutEquivalence,
                         ::testing::ValuesIn(backends::all_backends()),
                         [](const auto& info) {
                           return backends::to_string(info.param);
                         });

}  // namespace
}  // namespace gaia::matrix
