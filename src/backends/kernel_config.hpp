/// \file kernel_config.hpp
/// \brief Kernel launch shapes — the tuning knob the paper studies.
///
/// CUDA, HIP and SYCL let the programmer pick (blocks, threads-per-block)
/// per kernel; OpenMP exposes num_teams/thread_limit; C++ PSTL exposes
/// nothing (paper SIV-e). The study's headline tuning result — up to 40 %
/// iteration-time reduction, with *small* thread counts winning in the
/// atomic-heavy aprod2 kernels — is expressed through this type.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "matrix/precision.hpp"
#include "matrix/storage_layout.hpp"
#include "util/types.hpp"

namespace gaia::backends {

/// Storage layout the kernel body reads its coefficients through. The
/// enum lives in `matrix` (header-only — backends does not link
/// gaia_matrix) next to the builders; it is re-exported here because it
/// rides on KernelConfig through the whole tuning stack, exactly like
/// the scatter strategy.
using matrix::StorageLayout;
using matrix::kNumStorageLayouts;

[[nodiscard]] inline std::string to_string(StorageLayout layout) {
  return matrix::to_string(layout);
}
[[nodiscard]] inline std::optional<StorageLayout> parse_storage_layout(
    const std::string& name) {
  return matrix::parse_storage_layout(name);
}

/// Storage precision the kernel body reads its coefficients through.
/// Like StorageLayout, the enum lives in `matrix` (header-only) next to
/// the down-converters and rides on KernelConfig through the tuning
/// stack; accumulation is FP64 for every precision.
using matrix::Precision;
using matrix::kNumPrecisions;

[[nodiscard]] inline std::string to_string(Precision p) {
  return matrix::to_string(p);
}
[[nodiscard]] inline std::optional<Precision> parse_precision(
    const std::string& name) {
  return matrix::parse_precision(name);
}

/// How an atomic aprod2 scatter commits its updates to x.
///
/// kAtomic is the production path the paper tunes (atomic adds into the
/// shared column section, thread counts turned *down* to limit
/// collisions). kPrivatized is the contention-free alternative from the
/// SpMV-transpose literature: each worker accumulates into a private
/// copy of the column section, then a deterministic segmented tree
/// reduction folds the copies into x — no atomics at all, at the price
/// of scratch traffic proportional to workers x section length.
/// Non-atomic kernels ignore the strategy.
enum class ScatterStrategy : std::uint8_t {
  kAtomic = 0,
  kPrivatized,
};
inline constexpr int kNumScatterStrategies = 2;

[[nodiscard]] std::string to_string(ScatterStrategy strategy);
/// Inverse of to_string(ScatterStrategy); nullopt for unknown names.
[[nodiscard]] std::optional<ScatterStrategy> parse_scatter_strategy(
    const std::string& name);

/// Launch shape of one kernel. {0, 0} means "backend default".
struct KernelConfig {
  std::int32_t blocks = 0;
  std::int32_t threads = 0;
  /// Scatter commit strategy (atomic kernels only; kAtomic preserves the
  /// pre-strategy behaviour bit for bit).
  ScatterStrategy strategy = ScatterStrategy::kAtomic;
  /// Coefficient storage layout the kernel body reads. kSeedAos is the
  /// seed behaviour bit for bit; non-seed layouts require the matching
  /// derived arrays to be attached to the SystemView (the launcher
  /// falls back to kSeedAos when they are not).
  StorageLayout layout = StorageLayout::kSeedAos;
  /// Coefficient storage precision the kernel body loads through. kFp64
  /// is the seed behaviour bit for bit; reduced precisions require the
  /// matching down-converted planes to be attached to the SystemView
  /// (the launcher clamps to kFp64 when they are not). Accumulation is
  /// FP64 regardless.
  Precision precision = Precision::kFp64;

  [[nodiscard]] bool is_default() const { return blocks == 0 && threads == 0; }
  [[nodiscard]] std::int64_t total_threads() const {
    return static_cast<std::int64_t>(blocks) * threads;
  }
  bool operator==(const KernelConfig&) const = default;
};

/// Sanity bounds on launch shapes. No real GPU accepts more than 1024
/// threads per block (CUDA/HIP hard limit; we allow 4096 for the
/// simulated device's virtual threads), and a million blocks of host
/// work is far past any shape this solver could use productively.
inline constexpr std::int32_t kMaxBlocks = 1 << 20;
inline constexpr std::int32_t kMaxThreads = 4096;

/// True iff `cfg` is either the backend-default sentinel {0,0} or a
/// positive shape within [1, kMaxBlocks] x [1, kMaxThreads]. Negative
/// values and zero-paired-with-nonzero are never valid.
[[nodiscard]] bool is_valid_kernel_config(KernelConfig cfg);

/// Throws gaia::Error naming `context` and the offending values when
/// `cfg` fails is_valid_kernel_config. Call sites: CLI parsing, tuning
/// cache ingestion, TuningTable::set.
void validate_kernel_config(KernelConfig cfg, const std::string& context);

/// Parses "BxT" (e.g. "32x128") into a validated KernelConfig. Throws
/// gaia::Error on malformed input or out-of-range values.
[[nodiscard]] KernelConfig parse_kernel_config(const std::string& text);

/// The eight hot kernels of the solver (paper SIV: aprod{1,2} x
/// {astro, att, instr, glob}).
enum class KernelId : std::uint8_t {
  kAprod1Astro = 0,
  kAprod1Att,
  kAprod1Instr,
  kAprod1Glob,
  kAprod2Astro,
  kAprod2Att,
  kAprod2Instr,
  kAprod2Glob,
};
inline constexpr int kNumKernels = 8;

[[nodiscard]] std::string to_string(KernelId id);
/// Inverse of to_string(KernelId); nullopt for unknown names. Used by
/// the tuning cache to validate kernel keys on load.
[[nodiscard]] std::optional<KernelId> parse_kernel_id(
    const std::string& name);
/// All eight kernel ids in enum order (for registry/tuning iteration).
[[nodiscard]] const std::array<KernelId, kNumKernels>& all_kernels();

/// Whether the kernel performs atomic updates (all aprod2 kernels except
/// the block-diagonal astrometric one, paper SIV).
[[nodiscard]] constexpr bool kernel_uses_atomics(KernelId id) {
  return id == KernelId::kAprod2Att || id == KernelId::kAprod2Instr ||
         id == KernelId::kAprod2Glob;
}

/// Per-kernel launch shapes. Tunable backends read it; PSTL ignores it.
class TuningTable {
 public:
  [[nodiscard]] KernelConfig get(KernelId id) const {
    return table_[static_cast<std::size_t>(id)];
  }
  /// Validates the shape (throws gaia::Error on negative/absurd values)
  /// before storing — a TuningTable can never hold an unlaunchable
  /// config.
  void set(KernelId id, KernelConfig cfg);
  void set_all(KernelConfig cfg);

  /// The production-code heuristic: full occupancy for aprod1, reduced
  /// blocks/threads where atomics collide (paper SIV "we redesigned the
  /// code to reduce the number of blocks and GPU threads per block in the
  /// regions where atomic operations are performed").
  static TuningTable tuned_default();

  /// Untuned: every kernel at the naive full-occupancy shape — the
  /// configuration of the pre-optimization production code.
  static TuningTable untuned(KernelConfig cfg = {256, 256});

  /// True when any kernel's entry stores coefficients below fp64 — the
  /// condition that arms the post-solve refinement loop.
  [[nodiscard]] bool stores_reduced_precision() const {
    for (const KernelConfig& cfg : table_)
      if (cfg.precision != Precision::kFp64) return true;
    return false;
  }

  bool operator==(const TuningTable&) const = default;

 private:
  std::array<KernelConfig, kNumKernels> table_{};
};

}  // namespace gaia::backends
