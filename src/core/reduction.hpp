/// \file reduction.hpp
/// \brief The collectives LsqrEngine needs to run as one rank of a
/// row-distributed solve.
///
/// The production solver distributes observations (the rows of A, and
/// with them b and the Golub-Kahan vector u) over MPI ranks; the column
/// state x, v, w is replicated. Every value the engine needs over all
/// rows — ||u||, the aprod2 partial sums, the ABFT and deep-check sums,
/// the health verdict — goes through this interface, so one engine
/// serves one rank and many. The single-process engine runs over
/// `LocalReduction`, the 1-rank identity; dist/ adapts its Comm.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "util/types.hpp"

namespace gaia::core {

enum class ReduceOp : std::uint8_t { kSum, kMax, kMin };

class Reduction {
 public:
  virtual ~Reduction() = default;

  [[nodiscard]] virtual int rank() const = 0;
  [[nodiscard]] virtual int size() const = 0;

  /// Collective, in place: every rank ends with the element-wise
  /// reduction over all ranks (deterministic for a fixed rank count).
  virtual void allreduce(std::span<real> data, ReduceOp op) = 0;

  real allreduce(real value, ReduceOp op) {
    allreduce(std::span<real>(&value, 1), op);
    return value;
  }

  /// Collective: writes every rank's rows of `local` to their global
  /// positions in `global` (sized to the global row count), on all ranks.
  virtual void assemble_rows(std::span<const real> local,
                             std::span<real> global) = 0;

  /// Rank-local inverse of assemble_rows: this rank's rows of `global`.
  virtual void slice_rows(std::span<const real> global,
                          std::span<real> local) const = 0;
};

/// One process holding every row: rank 0 of 1, reductions are no-ops.
class LocalReduction final : public Reduction {
 public:
  [[nodiscard]] int rank() const override { return 0; }
  [[nodiscard]] int size() const override { return 1; }
  void allreduce(std::span<real>, ReduceOp) override {}
  void assemble_rows(std::span<const real> local,
                     std::span<real> global) override {
    std::copy(local.begin(), local.end(), global.begin());
  }
  void slice_rows(std::span<const real> global,
                  std::span<real> local) const override {
    std::copy(global.begin(), global.end(), local.begin());
  }
};

}  // namespace gaia::core
