/// \file solver.hpp
/// \brief High-level AVU-GSR solver run — the `solvergaiaSim` analog.
///
/// The paper's artifact is a single binary that (i) generates a synthetic
/// system of a requested size in GB from a seed, (ii) runs the LSQR for
/// a fixed number of iterations on the selected framework, and (iii)
/// reports the average iteration time. This facade packages that flow
/// for the examples and benchmark harnesses.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/lsqr.hpp"
#include "core/refinement.hpp"
#include "matrix/generator.hpp"
#include "metrics/roofline.hpp"
#include "resilience/checkpoint.hpp"
#include "tuning/autotuner.hpp"

namespace gaia::core {

/// Scatter-strategy policy for the three atomic aprod2 kernels
/// (att/instr/glob). `kAtomic` is today's behaviour bit-for-bit;
/// `kPrivatized` forces the contention-free privatized reduction;
/// `kAuto` lets the autotuner measure both arms per kernel (when
/// enabled and the backend honours launch shapes) and otherwise asks
/// the cost model's contention-vs-bandwidth crossover.
enum class ScatterMode : std::uint8_t {
  kAtomic = 0,
  kPrivatized,
  kAuto,
};

[[nodiscard]] std::string to_string(ScatterMode mode);
[[nodiscard]] std::optional<ScatterMode> parse_scatter_mode(
    const std::string& name);

/// Storage-layout policy for all eight kernels (gathers included).
/// `kSeed` is today's row-record AoS bit-for-bit; `kSoa` forces the
/// tiled SoA streams; `kSliced` forces SoA plus the sliced instrumental
/// format; `kAuto` lets the autotuner measure every layout arm (when
/// enabled and the backend honours launch shapes) and otherwise asks
/// the cost model's overfetch-vs-padding crossover per kernel.
enum class LayoutMode : std::uint8_t {
  kSeed = 0,
  kSoa,
  kSliced,
  kAuto,
};

[[nodiscard]] std::string to_string(LayoutMode mode);
[[nodiscard]] std::optional<LayoutMode> parse_layout_mode(
    const std::string& name);

/// Storage-precision policy for all eight kernels. `kFp64` is today's
/// double-precision planes bit-for-bit; `kFp32`/`kBf16s` store the
/// coefficient planes reduced (FP64 accumulation everywhere) and wrap
/// the solve in outer iterative refinement (core/refinement.hpp);
/// `kAuto` lets the autotuner measure every precision arm (when enabled
/// and the backend honours launch shapes) and otherwise asks the cost
/// model's bandwidth-vs-refinement crossover per kernel.
enum class PrecisionMode : std::uint8_t {
  kFp64 = 0,
  kFp32,
  kBf16s,
  kAuto,
};

[[nodiscard]] std::string to_string(PrecisionMode mode);
[[nodiscard]] std::optional<PrecisionMode> parse_precision_mode(
    const std::string& name);

/// Launch-shape autotuning for a solver run (off by default).
struct AutotuneRunConfig {
  bool enabled = false;
  /// CRC-framed JSON cache file. When the file already holds winners for
  /// this (backend, problem-shape bucket) the search is skipped; after a
  /// fresh search the winners are sealed back. Empty = no persistence.
  std::string cache_path;
  tuning::AutotuneOptions search{};
  /// Upper bound on warm-up apply1+apply2 rounds used by the search.
  int max_warmup_rounds = 256;
};

struct SolverRunConfig {
  /// Either an explicit generator configuration...
  std::optional<matrix::GeneratorConfig> generator;
  /// ...or a target memory footprint the generator is sized for.
  byte_size footprint_bytes = 16 * kMiB;
  std::uint64_t seed = 0x6761696173696dull;

  LsqrOptions lsqr{};

  /// Checkpoint orchestration (off unless `every > 0` and a directory is
  /// set): the solve periodically seals its state to disk and, when the
  /// directory already holds checkpoints of the same run, auto-resumes
  /// from the newest one that verifies.
  resilience::CheckpointConfig checkpoint{};

  /// Online (blocks, threads) search before the solve, with a persistent
  /// cache (paper SIV/SV-B: per-kernel launch shapes are worth up to
  /// 40 % of the iteration time and the optimum is device-dependent).
  AutotuneRunConfig autotune{};

  /// Scatter policy for the atomic aprod2 kernels. Authoritative over
  /// `autotune.search.scatter`: the autotune path derives its strategy
  /// axis from this mode.
  ScatterMode scatter = ScatterMode::kAtomic;

  /// Storage-layout policy for the kernels. Authoritative over
  /// `autotune.search.layout` the same way `scatter` is over its axis.
  LayoutMode storage_layout = LayoutMode::kSeed;

  /// Storage-precision policy for the kernels. Authoritative over
  /// `autotune.search.precision` the same way the other modes are over
  /// their axes. Any resolved reduced precision arms the iterative-
  /// refinement loop after the solve.
  PrecisionMode precision = PrecisionMode::kFp64;

  /// Refinement loop knobs (only consulted when the resolved tuning
  /// table carries a reduced precision).
  RefinementOptions refine{};
};

struct SolverRunReport {
  LsqrResult result;
  matrix::ParameterLayout layout;
  row_index n_obs = 0;
  row_index n_constraints = 0;
  byte_size system_bytes = 0;
  double generation_seconds = 0;
  double solve_seconds = 0;
  /// Iteration the solve resumed from (-1 = fresh start) and checkpoints
  /// sealed during this run.
  std::int64_t resumed_from_iteration = -1;
  std::uint64_t checkpoints_written = 0;

  /// Autotuning outcome (all zero/false unless autotune.enabled).
  bool autotune_enabled = false;
  /// All shapes came from the cache; no search ran.
  bool autotune_cache_hit = false;
  int kernels_tuned = 0;
  std::uint64_t tuning_trials = 0;
  /// Launch shapes the solve actually ran with.
  backends::TuningTable tuning_used{};

  /// Iterative-refinement outcome. `refinement_ran` is true exactly when
  /// the resolved table carried a reduced precision (the report is then
  /// meaningful); `precision_fell_back` means refinement stalled within
  /// its correction budget and the solve was redone fully in FP64.
  bool refinement_ran = false;
  bool precision_fell_back = false;
  RefinementReport refinement{};

  /// Pennycook-P digest over the kernels that recorded timing samples
  /// (0 when metrics were off or no kernel timed): per-kernel efficiency
  /// is model-predicted time over measured p50, normalized to the best
  /// kernel, folded with the harmonic mean of paper Eq. 1.
  double pennycook_p = 0;
  int pennycook_kernels = 0;
  /// Path of the sealed metrics snapshot, when one is armed.
  std::string metrics_snapshot_path;

  /// Roofline placement of every kernel series that recorded production
  /// traffic + timing (empty when metrics were off). The machine is the
  /// same representative A100 spec the cost-model crossovers use, so
  /// the %-of-ceiling column is consistent with the derived-bandwidth
  /// table; also published as `gaia_kernel_roofline_*` gauges.
  std::vector<metrics::RooflinePoint> roofline;
  metrics::RooflineMachine roofline_machine{};

  /// Events the bounded trace buffer dropped during this run (0 when
  /// tracing was off or the capacity was never hit); a nonzero value
  /// means the trace file is a sliding window, not the whole run.
  std::uint64_t trace_dropped_events = 0;

  /// One-paragraph human summary (examples print it verbatim).
  [[nodiscard]] std::string summary() const;
};

/// Resolves `config`'s scatter, layout and precision policy — the one
/// place the three axes are decided. A pinned mode is forced into every
/// kernel entry of `table` and fixes its `search` axis; `auto` opens the
/// axis and, when no measuring search will run (autotune off, or a
/// backend that ignores launch shapes), installs the cost model's
/// preferred arm for `gen_cfg`'s problem shape.
void apply_axis_policy(const SolverRunConfig& config,
                       const matrix::GeneratorConfig& gen_cfg,
                       backends::TuningTable& table,
                       tuning::AutotuneOptions& search);

/// Generates the system and solves it per the configuration.
SolverRunReport run_solver(const SolverRunConfig& config);

}  // namespace gaia::core
