/// \file health_monitor.hpp
/// \brief ABFT-style invariant monitoring for silent-data-corruption
/// defense in the LSQR solvers.
///
/// The loud-fault machinery (retry, CRC-framed checkpoints, rank-death
/// restart) cannot see a bit that flips *inside* a kernel's output: the
/// corrupted value flows through the Golub-Kahan recurrences and quietly
/// poisons the astrometric solution. This monitor closes that gap with
/// layered checks, cheapest first:
///
///  * **Scalar invariants** (every iteration, O(1)) — alpha/beta/rnorm/
///    arnorm/xnorm must be finite; alpha/beta are norms and must be
///    non-negative; a windowed rnorm divergence ratio catches estimate
///    blow-ups.
///  * **Kernel-output checksums** (every iteration, O(m + n)) — classic
///    ABFT over the aprod products: with precomputed checksum vectors
///    c = A^T 1 and r = A 1, the identities sum(A v) = c . v and
///    sum(A^T u) = r . u must hold to rounding. This is the detector
///    with *same-iteration* latency: a flip in a product's output that
///    the Golub-Kahan recurrence would otherwise absorb
///    self-consistently (the next basis vector is built *from* the
///    corrupted one, so downstream identities re-close) is caught here
///    before the recurrence consumes it.
///  * **Segment checksums** (every K iterations, O(m + n)) — a Kahan
///    sum-of-squares pass over u/v/x in fixed segments localizes
///    non-finite contamination and yields the vector norm for free,
///    which is cross-checked against the recurrence's own estimates:
///    u and v are unit vectors by construction, and ||x|| must agree
///    with the xnorm recurrence (the ABFT dual computation — the
///    estimate and the recomputation take disjoint arithmetic paths, so
///    a silent flip in either diverges them).
///  * **True-residual agreement** (every K iterations, one extra
///    apply1) — recompute ||b - A x|| and compare with the maintained
///    rnorm estimate; this is the detector a *self-consistent* corrupted
///    trajectory cannot fool, because the recurrence only ever sees the
///    corrupted Krylov basis while the recomputation sees the matrix.
///  * **Cross-rank state agreement** (dist, every K iterations, one
///    2-element allreduce) — v/w/x are replicated bit-identically
///    across ranks (reductions in vector_ops.hpp are serial Kahan), so
///    an FNV-1a hash of their bit patterns folded to 52 bits (exactly
///    representable as a double) must allreduce to min == max; a
///    minority rank whose replica diverged is caught within K
///    iterations.
///
/// The monitor only observes and diagnoses; containment/repair policy
/// (rollback to a validated snapshot, bounded replay, diagnosed abort)
/// lives in the solvers, keyed off `HealthMode`.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/types.hpp"

namespace gaia::resilience {

/// What to do about corruption: ignore (off), stop with a diagnosis
/// (detect), or roll back and replay (repair).
enum class HealthMode : std::uint8_t { kOff = 0, kDetect, kRepair };

[[nodiscard]] std::string to_string(HealthMode mode);
[[nodiscard]] std::optional<HealthMode> parse_health_mode(
    const std::string& name);

/// Environment knobs honored by `health_config_from_env()`.
inline constexpr const char* kHealthEnv = "GAIA_HEALTH";
inline constexpr const char* kHealthEveryEnv = "GAIA_HEALTH_EVERY";

struct HealthConfig {
  HealthMode mode = HealthMode::kOff;
  /// Deep-check cadence in iterations (segment checksums, residual
  /// recompute, cross-rank hash). The dominant overhead term is the
  /// residual recompute — one apply1 per check, roughly half an
  /// iteration — so the enabled-mode cost is ~0.5/check_every plus
  /// cheap O(m+n) passes (<3% at the default cadence). Detection
  /// latency for silent flips is bounded by this cadence.
  std::int64_t check_every = 25;
  /// Segments per checksum pass (non-finite localization granularity).
  int segments = 16;
  /// Relative disagreement tolerated between the rnorm estimate and the
  /// recomputed true residual. Healthy runs agree to ~1e-10; corrupted
  /// trajectories diverge by orders of magnitude within a few
  /// iterations.
  real residual_rel_tol = 1e-6;
  /// |norm^2 - 1| bound for the normalized Golub-Kahan vectors.
  real unit_norm_tol = 1e-8;
  /// Relative tolerance of the per-iteration ABFT kernel-output
  /// checksums (sum(A v) vs (A^T 1) . v and the adjoint dual): the two
  /// sides take disjoint arithmetic paths, so they agree only to
  /// accumulated rounding — comfortably under 1e-11 of the magnitude
  /// scale — while a single bit flip in the output shifts the sum by
  /// the flip's absolute size. Flips below tol x scale are tolerated;
  /// they perturb the trajectory by less than the solver's own rounding.
  real abft_rel_tol = 1e-9;
  /// Relative disagreement tolerated between ||x|| and the recurrence's
  /// xnorm estimate (degrades with loss of Krylov orthogonality, hence
  /// looser than the residual tolerance).
  real xnorm_rel_tol = 1e-3;
  /// rnorm rising above `ratio x` the window minimum trips divergence.
  real rnorm_growth_ratio = 10.0;
  int window = 16;  ///< rnorm observations kept for the divergence test
  /// Rollback/replay attempts before escalating to a diagnosed abort.
  int max_repairs = 3;

  [[nodiscard]] bool enabled() const { return mode != HealthMode::kOff; }
  [[nodiscard]] bool due(std::int64_t iteration) const {
    return enabled() && check_every > 0 && iteration > 0 &&
           iteration % check_every == 0;
  }
};

/// Config from GAIA_HEALTH / GAIA_HEALTH_EVERY; a non-empty
/// `mode_override` (CLI) wins over the environment, `every_override > 0`
/// likewise. Throws gaia::Error on an unknown mode name.
[[nodiscard]] HealthConfig health_config_from_env(
    const std::string& mode_override = "",
    std::int64_t every_override = 0);

/// Which invariant a detection tripped.
enum class HealthInvariant : std::uint8_t {
  kNone = 0,
  kScalarFinite,           ///< non-finite recurrence scalar
  kScalarSign,             ///< a norm-valued scalar went negative
  kRnormDivergence,        ///< rnorm blew past the windowed minimum
  kSegmentChecksum,        ///< non-finite contamination in a vector
  kUnitNorm,               ///< u/v no longer unit after normalization
  kXnormAgreement,         ///< ||x|| disagrees with the xnorm recurrence
  kResidualAgreement,      ///< true ||b-Ax|| disagrees with the estimate
  kStateHashDisagreement,  ///< replicated state differs across ranks
  kKernelChecksum,         ///< ABFT checksum mismatch on a kernel output
                           ///< (same-iteration detection — catches flips
                           ///< the recurrence would otherwise absorb
                           ///< self-consistently)
};

[[nodiscard]] std::string to_string(HealthInvariant invariant);

/// Diagnosis of one detection: which invariant, where, and the numbers.
struct HealthVerdict {
  HealthInvariant invariant = HealthInvariant::kNone;
  std::int64_t iteration = -1;
  int rank = 0;
  std::string detail;

  [[nodiscard]] bool healthy() const {
    return invariant == HealthInvariant::kNone;
  }
  /// "invariant 'residual-agreement' tripped at iteration 25 on rank 0:
  /// ..." — the string that reaches counters, traces and aborts.
  [[nodiscard]] std::string describe() const;
};

/// Raised when repair is exhausted: the diagnosed abort of the SDC
/// pipeline, carrying which invariant / iteration / rank.
class SdcError : public Error {
 public:
  explicit SdcError(const HealthVerdict& verdict)
      : Error("unrepaired silent data corruption: " + verdict.describe()),
        verdict_(verdict) {}

  [[nodiscard]] const HealthVerdict& verdict() const { return verdict_; }

 private:
  HealthVerdict verdict_;
};

/// Health outcome of one solve, surfaced through the result structs.
struct HealthReport {
  HealthMode mode = HealthMode::kOff;
  std::uint64_t checks = 0;      ///< deep check passes run
  std::uint64_t detections = 0;  ///< invariant trips (incl. re-detections)
  std::uint64_t repairs = 0;     ///< successful rollback/replays
  std::int64_t first_detection_iteration = -1;
  std::string last_diagnosis;    ///< empty = never tripped
  bool unrepaired = false;       ///< true when repair budget ran out
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthConfig config, int rank = 0);

  [[nodiscard]] const HealthConfig& config() const { return config_; }

  /// Cheap per-iteration invariants over the recurrence scalars.
  [[nodiscard]] HealthVerdict check_scalars(std::int64_t iteration,
                                            real alpha, real beta,
                                            real rnorm, real arnorm,
                                            real xnorm);

  /// Windowed rnorm divergence (maintains the window internally; call
  /// once per iteration, after check_scalars).
  [[nodiscard]] HealthVerdict check_rnorm_window(std::int64_t iteration,
                                                 real rnorm);

  /// Segment-checksum pass: localizes non-finite contamination to a
  /// segment of `name`, and when `expected_norm >= 0` cross-checks the
  /// recomputed ||v|| against it within `rel_tol`, reporting
  /// `norm_invariant` on mismatch.
  [[nodiscard]] HealthVerdict check_vector(
      std::int64_t iteration, std::string_view name,
      std::span<const real> v, real expected_norm = -1, real rel_tol = 0,
      HealthInvariant norm_invariant = HealthInvariant::kUnitNorm);

  /// Generic ABFT agreement test between a recomputed `value` and the
  /// recurrence's `estimate` (relative to the larger magnitude).
  [[nodiscard]] HealthVerdict check_agreement(std::int64_t iteration,
                                              std::string_view name,
                                              real value, real estimate,
                                              real rel_tol,
                                              HealthInvariant invariant);

  /// Per-iteration ABFT kernel-output checksum: `actual` is the summed
  /// output of `kernel`, `expected` the checksum-vector identity's
  /// prediction, `scale` a magnitude bound of the terms involved (the
  /// tolerance is abft_rel_tol x max(scale, 1) — an explicit scale,
  /// because the two sides can cancel to near zero while their terms
  /// stay large). Non-finite values on either side always trip.
  [[nodiscard]] HealthVerdict check_kernel_checksum(std::int64_t iteration,
                                                    std::string_view kernel,
                                                    real actual,
                                                    real expected,
                                                    real scale);

  /// Bookkeeping. `note_deep_check` counts a completed deep pass;
  /// `record_detection` / `record_repair` / `record_unrepaired` emit the
  /// resilience.sdc.* counters and trace instants and accumulate the
  /// report. Every rank of a distributed solve keeps the same report;
  /// only rank 0 emits, so a solve counts once however many ranks run it.
  void note_deep_check();
  void record_detection(const HealthVerdict& verdict);
  void record_repair(std::int64_t iteration,
                     std::int64_t restored_iteration);
  void record_unrepaired(const HealthVerdict& verdict);

  /// Drops the rnorm window (call after a rollback: pre-corruption
  /// observations would re-trip on the replayed trajectory).
  void reset_window();

  [[nodiscard]] HealthReport report() const;
  [[nodiscard]] std::uint64_t detections() const { return detections_; }
  [[nodiscard]] std::uint64_t repairs() const { return repairs_; }

 private:
  HealthConfig config_;
  int rank_ = 0;
  std::vector<real> window_;
  std::uint64_t checks_ = 0, detections_ = 0, repairs_ = 0;
  std::int64_t first_detection_ = -1;
  std::string last_diagnosis_;
  bool unrepaired_ = false;
};

/// Deterministic FNV-1a hash over the bit patterns of the replicated
/// solver state. Ranks on bit-identical trajectories — guaranteed by the
/// serial Kahan reductions — produce identical hashes; one flipped bit
/// anywhere diverges it.
[[nodiscard]] std::uint64_t state_hash(
    std::span<const real> scalars,
    std::initializer_list<std::span<const real>> vectors);

/// Folds a hash to 52 bits so its value survives a double-precision
/// allreduce exactly (the in-process Comm reduces over `real`).
[[nodiscard]] double fold_hash_to_real(std::uint64_t hash);

}  // namespace gaia::resilience
