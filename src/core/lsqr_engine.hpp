/// \file lsqr_engine.hpp
/// \brief Stateful, steppable LSQR with checkpoint/restart.
///
/// `lsqr_solve()` is a convenience wrapper around this engine. The
/// engine form exists for the two production needs the batch call cannot
/// serve:
///  * **checkpoint/restart** — a full AVU-GSR solve occupies a large
///    allocation on a shared machine for hours; the production solver
///    persists its state and resumes across job boundaries. The engine
///    serializes the complete Golub-Kahan state (vectors + recurrence
///    scalars) and resumes bit-exactly;
///  * **outer-loop integration** — re-weighting and monitoring schemes
///    interleave with the iteration (paper Fig. 1 pipeline), which needs
///    per-step control.
///
/// The same engine is every rank of a distributed solve (dist/): built
/// over a rank's row slice and a `Reduction`, it computes the global
/// quantities collectively and follows the single-process trajectory —
/// bit for bit on one rank.
#pragma once

#include <iosfwd>

#include "core/lsqr.hpp"
#include "core/reduction.hpp"
#include "resilience/checkpoint.hpp"

namespace gaia::core {

class LsqrEngine {
 public:
  /// Prepares the solve: preconditions (if configured), copies the
  /// system to the device, and runs the bidiagonalization start. The
  /// system must outlive the engine.
  LsqrEngine(const matrix::SystemMatrix& A, std::span<const real> b,
             const LsqrOptions& options);
  /// b defaults to A.known_terms().
  explicit LsqrEngine(const matrix::SystemMatrix& A,
                      const LsqrOptions& options = {});
  /// One rank of a row-distributed solve: `A` holds this rank's rows
  /// (b = A.known_terms()) and `reduction` (which must outlive the
  /// engine) reaches the other ranks. With options.precondition, `A` is
  /// already scaled by `col_scale`, the norms of the *global* columns —
  /// the caller scales once before slicing. Construction, step() and
  /// checkpoint() are collective: every rank calls them together.
  LsqrEngine(const matrix::SystemMatrix& A, const LsqrOptions& options,
             Reduction& reduction, std::span<const real> col_scale);
  ~LsqrEngine();

  LsqrEngine(const LsqrEngine&) = delete;
  LsqrEngine& operator=(const LsqrEngine&) = delete;

  /// Runs one LSQR iteration. Returns false once finished (stopping
  /// test hit or iteration limit reached); further calls are no-ops.
  bool step();

  /// Runs until finished; returns the number of iterations executed by
  /// this call.
  std::int64_t run_to_completion();

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] std::int64_t iteration() const { return itn_; }
  [[nodiscard]] LsqrStop stop_reason() const { return istop_; }
  /// Current residual-norm estimate (updates every step).
  [[nodiscard]] real rnorm() const { return rnorm_; }
  [[nodiscard]] real arnorm() const { return arnorm_; }

  /// Snapshot of the current solution and statistics (unscaled — valid
  /// at any point, not only at completion).
  [[nodiscard]] LsqrResult result() const;

  /// The aprod driver (launch and traffic accounting of this rank).
  [[nodiscard]] const Aprod& aprod() const;

  /// Serializes the complete solver state (versioned binary). The
  /// checkpoint embeds the problem fingerprint; `restore` validates it.
  /// u is stored over all rows and the fingerprint covers the global
  /// system, so a checkpoint restores on any rank count.
  void checkpoint(std::ostream& os) const;
  void checkpoint(const std::string& path) const;

  /// Restores a checkpoint into an engine constructed over the *same*
  /// system, rhs and options (on any rank count; rank-local — each rank
  /// keeps its rows of u); throws gaia::Error on fingerprint mismatch or
  /// corrupt data. Resumed runs are bit-identical to uninterrupted ones
  /// on the same rank count.
  void restore(std::istream& is);
  void restore(const std::string& path);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  // Mirrors of hot state for the inline accessors.
  bool finished_ = false;
  std::int64_t itn_ = 0;
  LsqrStop istop_ = LsqrStop::kIterationLimit;
  real rnorm_ = 0;
  real arnorm_ = 0;

  void sync_mirrors();
};

/// Auto-resume: walks `manager`'s rotation newest-first and restores the
/// first checkpoint that passes both the CRC framing and the engine's
/// fingerprint; corrupt or stale files are skipped, with a warning and
/// an obs event when `announce`. Returns the resumed iteration, or -1.
std::int64_t resume_newest(LsqrEngine& engine,
                           const resilience::CheckpointManager& manager,
                           bool announce = true);

}  // namespace gaia::core
