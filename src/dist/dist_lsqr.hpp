/// \file dist_lsqr.hpp
/// \brief Distributed (multi-rank) LSQR — the MPI structure of the
/// production solver over the in-process World.
///
/// Every rank runs the one core::LsqrEngine over its row slice and a
/// Comm-backed core::Reduction. Data placement mirrors production: u and
/// the matrix rows are distributed by observation; x, v, w are
/// replicated; every aprod2 partial result is allreduce-summed; the
/// recurrence scalars are computed from allreduced norms, so all ranks
/// follow the same scalar trajectory — on one rank, bit for bit the
/// single-process one. The reported iteration time is the *maximum over
/// ranks*, exactly the paper's measurement rule (Appendix B).
#pragma once

#include "core/lsqr.hpp"
#include "dist/comm.hpp"
#include "dist/metrics_reduce.hpp"
#include "dist/partition.hpp"
#include "resilience/checkpoint.hpp"
#include "tuning/autotuner.hpp"

namespace gaia::dist {

struct DistLsqrOptions {
  int n_ranks = 2;
  /// Per-rank solver options. `lsqr.health` also governs the distributed
  /// SDC defense: the engine's invariants every iteration plus, every
  /// `health.check_every` iterations, a deep pass that adds a cross-rank
  /// agreement check — the replicated v/w/x state is hashed per rank and
  /// allreduce-compared (min == max or a replica diverged). All
  /// detection decisions are themselves collective (the lowest tripped
  /// rank's verdict reaches every rank), so a corrupted rank can never
  /// desync the world's collective order.
  core::LsqrOptions lsqr{};
  /// Periodic checkpoints in the engine's format (rank 0 seals the
  /// replicated + reassembled state every `checkpoint.every` iterations;
  /// any rank count resumes them). Also the recovery source after a rank
  /// death: disabled (`every == 0`) means a rank death restarts the solve
  /// from iteration 0.
  resilience::CheckpointConfig checkpoint{};
  /// Rank-death recoveries allowed before the error propagates. Each
  /// recovery drops the dead rank, re-partitions over the survivors and
  /// resumes from the newest valid checkpoint.
  int max_restarts = 3;
  /// Launch-shape search before the iteration loop: rank 0 tunes on its
  /// local slice and broadcasts the winning table, so every rank runs
  /// identical shapes (the production rule — mismatched shapes would
  /// skew the max-over-ranks iteration time).
  bool autotune = false;
  tuning::AutotuneOptions autotune_search{};
  /// Per-rank distributed tracing: when non-empty, every rank records
  /// into its own TraceRecorder (clock-aligned against the World epoch)
  /// and writes `<trace_dir>/trace.rank<N>.json`; the driver then merges
  /// them into `<trace_dir>/trace.merged.json` — the input of
  /// tools/gaia-critpath.
  std::string trace_dir;
  /// Event cap per rank recorder (0 = recorder default, currently 1M).
  std::size_t trace_capacity = 0;
};

struct DistLsqrResult {
  std::vector<real> x;
  std::vector<real> std_errors;
  core::LsqrStop istop = core::LsqrStop::kIterationLimit;
  std::int64_t iterations = 0;
  real rnorm = 0;
  real anorm = 0;
  real acond = 0;
  /// Mean over iterations of the per-iteration wall time maximized over
  /// ranks (paper: "iteration time maximized among all MPI processes").
  double mean_iteration_s = 0;
  std::vector<double> iteration_seconds;
  RowPartition partition;

  /// Recovery bookkeeping: restarts taken (0 = healthy run), ranks the
  /// final attempt ran on, iteration the last restart resumed from
  /// (-1 = never resumed) and checkpoints sealed across all attempts.
  int restarts = 0;
  int final_ranks = 0;
  std::int64_t resumed_from_iteration = -1;
  std::uint64_t checkpoints_written = 0;

  /// Performance observatory: each rank's local counter rows
  /// (dist.rank.*, indexed by rank of the final attempt) and their
  /// cross-rank reduction. `cluster_metrics_complete` is false when the
  /// reduction was partial (schema mismatch or a peer died mid-reduce),
  /// in which case `cluster_metrics` holds rank 0's local rows.
  std::vector<std::vector<obs::MetricRow>> rank_metrics;
  std::vector<obs::MetricRow> cluster_metrics;
  bool cluster_metrics_complete = false;

  /// Collective-time accounting of the final attempt's iteration loop,
  /// maximized over ranks: total seconds inside collectives, the
  /// entry-barrier (skew) share, and the comm-exposure fraction
  /// (collective seconds / loop wall seconds — the LSQR loop is
  /// synchronous, so unoverlapped comm is simply comm).
  double comm_seconds_max = 0;
  double comm_wait_seconds_max = 0;
  double comm_exposure_fraction_max = 0;

  /// Distributed tracing artifacts (empty unless trace_dir was set):
  /// one file per rank plus the merged multi-process timeline, and the
  /// total events lost to the per-rank capacity cap.
  std::vector<std::string> trace_files;
  std::string merged_trace_file;
  std::uint64_t trace_dropped_events = 0;

  /// Health-monitor outcome of the final attempt (mode kOff with zero
  /// counters unless options.lsqr.health enabled it). In repair mode a
  /// collective detection rolls every rank back to its in-memory
  /// validated snapshot, bounded by health.max_repairs; exhausting the
  /// budget throws resilience::SdcError with the diagnosis.
  resilience::HealthReport health{};
};

/// Solves A x ~= A.known_terms() on `n_ranks` simulated MPI ranks.
DistLsqrResult dist_lsqr_solve(const matrix::SystemMatrix& A,
                               const DistLsqrOptions& options);

}  // namespace gaia::dist
