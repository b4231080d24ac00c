/// \file aprod_kernels.hpp
/// \brief The eight hot kernels of the solver, templated on the backend.
///
/// aprod mode 1 (paper Eq. 3): y += A x — a gather per row; every kernel
/// accumulates its block's partial dot product into y[r], so the four
/// aprod1 kernels must not run concurrently with each other (they share
/// y), matching the production code where only aprod2 is overlapped.
///
/// aprod mode 2 (paper Eq. 4): x += A^T y — a scatter per row into x.
/// The astrometric part is block diagonal, so parallelizing over *stars*
/// gives each task exclusive ownership of its five columns: no atomics.
/// Attitude, instrumental and global columns are shared between rows, so
/// their updates are atomic; the three kernels target disjoint sections
/// of x and may safely overlap in streams (paper SIV).
///
/// Templating on the execution policy keeps the row loop body inlined in
/// every backend while the launch mechanics (grid-stride virtual threads,
/// OpenMP directives, parallel algorithms, plain loop) differ — this is
/// the library's equivalent of maintaining one kernel source per
/// programming model.
///
/// Every body additionally takes the coefficient storage scalar `CoefT`
/// (real | float | matrix::bf16s — the Precision axis). Coefficients
/// are converted on load (`matrix::load_real`) and all arithmetic and
/// accumulation stays FP64, whatever the storage precision: the solver
/// needs ~1e-11 rad in the solution and LSQR amplifies accumulator
/// rounding, while storage rounding only perturbs A — a nearby system
/// that outer iterative refinement corrects. The CoefT = real
/// instantiation reads the exact same arrays as the pre-precision code.
#pragma once

#include <algorithm>
#include <bit>

#include "backends/backend.hpp"
#include "backends/scratch_arena.hpp"
#include "core/system_view.hpp"
#include "util/types.hpp"

namespace gaia::core {

using backends::AtomicMode;
using backends::KernelConfig;
using matrix::load_real;

// ---------------------------------------------------------------------------
// aprod1: y += A x (row-parallel gathers; no atomics anywhere)
// ---------------------------------------------------------------------------
// The gather inner loops run over fixed, tiny trip counts through
// pointers that never alias (coefficients, index arrays and x come from
// distinct buffers): GAIA_RESTRICT + the simd reduction hint let the
// serial/pstl backends vectorize what CUDA gets from the hardware.

template <typename Exec, typename CoefT = real>
void aprod1_astro(const SystemView& A, const real* x, real* y,
                  KernelConfig cfg) {
  const CoefT* vals = A.coefs<CoefT>().values;
  Exec::launch(A.n_rows, cfg, [=](std::int64_t r) {
    const CoefT* GAIA_RESTRICT rv =
        vals + r * kNnzPerRow + matrix::kAstroCoeffOffset;
    const real* GAIA_RESTRICT xs = x + A.idx_astro[r];
    real sum = 0;
    GAIA_OMP_SIMD_REDUCTION(sum)
    for (int i = 0; i < kAstroNnzPerRow; ++i) sum += load_real(rv[i]) * xs[i];
    y[r] += sum;
  });
}

template <typename Exec, typename CoefT = real>
void aprod1_att(const SystemView& A, const real* x, real* y,
                KernelConfig cfg) {
  const CoefT* vals = A.coefs<CoefT>().values;
  Exec::launch(A.n_rows, cfg, [=](std::int64_t r) {
    const CoefT* GAIA_RESTRICT rv =
        vals + r * kNnzPerRow + matrix::kAttCoeffOffset;
    const col_index base = A.att_offset + A.idx_att[r];
    real sum = 0;
    for (int blk = 0; blk < kAttBlocks; ++blk) {
      const real* GAIA_RESTRICT xb = x + base + blk * A.att_stride;
      const CoefT* GAIA_RESTRICT rb = rv + blk * kAttBlockSize;
      GAIA_OMP_SIMD_REDUCTION(sum)
      for (int i = 0; i < kAttBlockSize; ++i)
        sum += load_real(rb[i]) * xb[i];
    }
    y[r] += sum;
  });
}

template <typename Exec, typename CoefT = real>
void aprod1_instr(const SystemView& A, const real* x, real* y,
                  KernelConfig cfg) {
  const CoefT* vals = A.coefs<CoefT>().values;
  Exec::launch(A.n_rows, cfg, [=](std::int64_t r) {
    const CoefT* GAIA_RESTRICT rv =
        vals + r * kNnzPerRow + matrix::kInstrCoeffOffset;
    const std::int32_t* GAIA_RESTRICT cols =
        A.instr_col + r * kInstrNnzPerRow;
    const real* GAIA_RESTRICT xs = x + A.instr_offset;
    real sum = 0;
    GAIA_OMP_SIMD_REDUCTION(sum)
    for (int i = 0; i < kInstrNnzPerRow; ++i)
      sum += load_real(rv[i]) * xs[cols[i]];
    y[r] += sum;
  });
}

template <typename Exec, typename CoefT = real>
void aprod1_glob(const SystemView& A, const real* x, real* y,
                 KernelConfig cfg) {
  if (!A.has_global) return;
  const real xg = x[A.glob_offset];
  const CoefT* vals = A.coefs<CoefT>().values;
  Exec::launch(A.n_rows, cfg, [=](std::int64_t r) {
    y[r] += load_real(vals[r * kNnzPerRow + matrix::kGlobCoeffOffset]) * xg;
  });
}

// ---------------------------------------------------------------------------
// aprod2: x += A^T y (column scatters)
// ---------------------------------------------------------------------------

/// Star-parallel, atomic-free: each star owns its 5 columns and the rows
/// touching them are exactly its contiguous row range. Requires the
/// generator invariant that constraint rows carry zero astrometric
/// coefficients (they are not covered by the star partition).
template <typename Exec, typename CoefT = real>
void aprod2_astro(const SystemView& A, const real* y, real* x,
                  KernelConfig cfg) {
  const CoefT* vals = A.coefs<CoefT>().values;
  Exec::launch(A.n_stars, cfg, [=](std::int64_t s) {
    const col_index c0 = s * kAstroParamsPerStar;
    real acc[kAstroNnzPerRow] = {0, 0, 0, 0, 0};
    for (row_index r = A.star_row_start[s]; r < A.star_row_start[s + 1];
         ++r) {
      const CoefT* rv = vals + r * kNnzPerRow + matrix::kAstroCoeffOffset;
      const real yr = y[r];
      for (int i = 0; i < kAstroNnzPerRow; ++i)
        acc[i] += load_real(rv[i]) * yr;
    }
    for (int i = 0; i < kAstroNnzPerRow; ++i) x[c0 + i] += acc[i];
  });
}

/// Row-parallel with atomic updates: neighbouring observations hit the
/// same attitude spline knots (this is the collision hot spot the paper
/// tunes thread counts down for).
template <typename Exec, typename CoefT = real>
void aprod2_att(const SystemView& A, const real* y, real* x,
                KernelConfig cfg, AtomicMode mode) {
  const CoefT* vals = A.coefs<CoefT>().values;
  Exec::launch(A.n_rows, cfg, [=](std::int64_t r) {
    const CoefT* rv = vals + r * kNnzPerRow + matrix::kAttCoeffOffset;
    const real yr = y[r];
    const col_index base = A.att_offset + A.idx_att[r];
    for (int blk = 0; blk < kAttBlocks; ++blk) {
      const col_index c0 = base + blk * A.att_stride;
      for (int i = 0; i < kAttBlockSize; ++i)
        Exec::atomic_add(x[c0 + i],
                         load_real(rv[blk * kAttBlockSize + i]) * yr, mode);
    }
  });
}

template <typename Exec, typename CoefT = real>
void aprod2_instr(const SystemView& A, const real* y, real* x,
                  KernelConfig cfg, AtomicMode mode) {
  const CoefT* vals = A.coefs<CoefT>().values;
  Exec::launch(A.n_rows, cfg, [=](std::int64_t r) {
    const CoefT* rv = vals + r * kNnzPerRow + matrix::kInstrCoeffOffset;
    const std::int32_t* cols = A.instr_col + r * kInstrNnzPerRow;
    const real yr = y[r];
    for (int i = 0; i < kInstrNnzPerRow; ++i)
      Exec::atomic_add(x[A.instr_offset + cols[i]], load_real(rv[i]) * yr,
                       mode);
  });
}

/// Every row contributes to the single PPN-gamma unknown — the most
/// contended column of the whole system.
template <typename Exec, typename CoefT = real>
void aprod2_glob(const SystemView& A, const real* y, real* x,
                 KernelConfig cfg, AtomicMode mode) {
  if (!A.has_global) return;
  const CoefT* vals = A.coefs<CoefT>().values;
  Exec::launch(A.n_rows, cfg, [=](std::int64_t r) {
    Exec::atomic_add(
        x[A.glob_offset],
        load_real(vals[r * kNnzPerRow + matrix::kGlobCoeffOffset]) * y[r],
        mode);
  });
}

// ---------------------------------------------------------------------------
// aprod2, privatized strategy (ScatterStrategy::kPrivatized): no atomics
// ---------------------------------------------------------------------------

namespace detail {

/// The contention-free scatter skeleton shared by the three privatized
/// kernels. W = Exec::scatter_workers(cfg) workers each zero a private
/// copy of the kernel's column section in pooled scratch and accumulate
/// a contiguous row chunk into it sequentially (ascending rows); the
/// copies are then folded pairwise — slice p += slice p+stride, stride
/// halving from bit_ceil(W)/2 — a combine order fixed by W alone, so a
/// fixed launch shape reduces bit-identically run to run regardless of
/// thread scheduling. The folded slice 0 is added into x in one
/// column-parallel pass. `accumulate_row(slice, r)` adds row r's
/// contribution at section-relative indices.
template <typename Exec, typename AccumRow>
void privatized_scatter(std::int64_t n_rows, real* x, col_index sect_offset,
                        col_index sect_len, KernelConfig cfg,
                        backends::ScratchArena* arena,
                        AccumRow&& accumulate_row) {
  if (sect_len <= 0) return;
  const int workers = Exec::scatter_workers(cfg);
  backends::ScratchArena& pool =
      arena ? *arena : backends::ScratchArena::for_backend(Exec::kKind);
  auto lease = pool.acquire(static_cast<std::size_t>(workers) *
                            static_cast<std::size_t>(sect_len));
  real* const scratch = lease.data();
  const std::int64_t chunk = (n_rows + workers - 1) / workers;

  Exec::launch_workers(workers, cfg, [&](int w) {
    real* GAIA_RESTRICT slice =
        scratch + static_cast<std::int64_t>(w) * sect_len;
    std::fill(slice, slice + sect_len, real{0});
    const std::int64_t begin = static_cast<std::int64_t>(w) * chunk;
    const std::int64_t end = std::min(n_rows, begin + chunk);
    for (std::int64_t r = begin; r < end; ++r) accumulate_row(slice, r);
  });

  const int top =
      static_cast<int>(std::bit_ceil(static_cast<unsigned>(workers)) / 2);
  for (int stride = top; stride >= 1; stride /= 2) {
    const std::int64_t pairs = std::min(stride, workers - stride);
    if (pairs <= 0) continue;
    Exec::launch(pairs * sect_len, cfg, [=](std::int64_t i) {
      const std::int64_t p = i / sect_len;
      const std::int64_t c = i - p * sect_len;
      scratch[p * sect_len + c] += scratch[(p + stride) * sect_len + c];
    });
  }
  Exec::launch(sect_len, cfg,
               [=](std::int64_t c) { x[sect_offset + c] += scratch[c]; });
}

}  // namespace detail

/// Privatized attitude scatter: each worker owns a private copy of the
/// full attitude section (n_att entries) — collisions on the shared
/// spline knots vanish entirely.
template <typename Exec, typename CoefT = real>
void aprod2_att_privatized(const SystemView& A, const real* y, real* x,
                           KernelConfig cfg,
                           backends::ScratchArena* arena = nullptr) {
  const CoefT* vals = A.coefs<CoefT>().values;
  detail::privatized_scatter<Exec>(
      A.n_rows, x, A.att_offset, A.instr_offset - A.att_offset, cfg, arena,
      [=](real* GAIA_RESTRICT slice, std::int64_t r) {
        const CoefT* GAIA_RESTRICT rv =
            vals + r * kNnzPerRow + matrix::kAttCoeffOffset;
        const real yr = y[r];
        const col_index base = A.idx_att[r];
        for (int blk = 0; blk < kAttBlocks; ++blk) {
          const col_index c0 = base + blk * A.att_stride;
          for (int i = 0; i < kAttBlockSize; ++i)
            slice[c0 + i] += load_real(rv[blk * kAttBlockSize + i]) * yr;
        }
      });
}

template <typename Exec, typename CoefT = real>
void aprod2_instr_privatized(const SystemView& A, const real* y, real* x,
                             KernelConfig cfg,
                             backends::ScratchArena* arena = nullptr) {
  const CoefT* vals = A.coefs<CoefT>().values;
  detail::privatized_scatter<Exec>(
      A.n_rows, x, A.instr_offset, A.glob_offset - A.instr_offset, cfg,
      arena, [=](real* GAIA_RESTRICT slice, std::int64_t r) {
        const CoefT* GAIA_RESTRICT rv =
            vals + r * kNnzPerRow + matrix::kInstrCoeffOffset;
        const std::int32_t* GAIA_RESTRICT cols =
            A.instr_col + r * kInstrNnzPerRow;
        const real yr = y[r];
        for (int i = 0; i < kInstrNnzPerRow; ++i)
          slice[cols[i]] += load_real(rv[i]) * yr;
      });
}

/// Privatized global scatter: the single PPN-gamma column degenerates to
/// one private partial sum per worker plus the tree fold — a classic
/// parallel reduction replacing the most contended atomic of the system.
template <typename Exec, typename CoefT = real>
void aprod2_glob_privatized(const SystemView& A, const real* y, real* x,
                            KernelConfig cfg,
                            backends::ScratchArena* arena = nullptr) {
  if (!A.has_global) return;
  const CoefT* vals = A.coefs<CoefT>().values;
  detail::privatized_scatter<Exec>(
      A.n_rows, x, A.glob_offset, 1, cfg, arena,
      [=](real* GAIA_RESTRICT slice, std::int64_t r) {
        slice[0] +=
            load_real(vals[r * kNnzPerRow + matrix::kGlobCoeffOffset]) * y[r];
      });
}

// ---------------------------------------------------------------------------
// StorageLayout::kSoaTiled bodies: plane-major SoA streams in row tiles
// ---------------------------------------------------------------------------
// Same arithmetic, same per-row accumulation order as the seed bodies —
// only the coefficient addressing changes, so each row's contribution is
// bit-identical to the seed layout's. The win is pure traffic: a kernel
// streams exactly its own planes (40–96 B/row) instead of the full
// 192 B record. The plane-stride gathers are constant-stride
// (kSoaTileRows), so the simd reduction hint still applies — the
// compiler emits strided vector gathers instead of scalar loads.

namespace detail {

/// Address of coefficient plane 0 for row r in a `planes`-wide stream,
/// plus the in-tile lane; plane i then sits at `base[i * kSoaTileRows]`.
template <typename T>
inline const T* soa_row(const T* stream, int planes, std::int64_t r) {
  const std::int64_t t = r / matrix::kSoaTileRows;
  const std::int64_t w = r - t * matrix::kSoaTileRows;
  return stream + (t * planes) * matrix::kSoaTileRows + w;
}

}  // namespace detail

template <typename Exec, typename CoefT = real>
void aprod1_astro_soa(const SystemView& A, const real* x, real* y,
                      KernelConfig cfg) {
  const CoefT* stream = A.coefs<CoefT>().soa_astro;
  Exec::launch(A.n_rows, cfg, [=](std::int64_t r) {
    const CoefT* GAIA_RESTRICT rv =
        detail::soa_row(stream, kAstroNnzPerRow, r);
    const real* GAIA_RESTRICT xs = x + A.idx_astro[r];
    real sum = 0;
    GAIA_OMP_SIMD_REDUCTION(sum)
    for (int i = 0; i < kAstroNnzPerRow; ++i)
      sum += load_real(rv[i * matrix::kSoaTileRows]) * xs[i];
    y[r] += sum;
  });
}

template <typename Exec, typename CoefT = real>
void aprod1_att_soa(const SystemView& A, const real* x, real* y,
                    KernelConfig cfg) {
  const CoefT* stream = A.coefs<CoefT>().soa_att;
  Exec::launch(A.n_rows, cfg, [=](std::int64_t r) {
    const CoefT* GAIA_RESTRICT rv = detail::soa_row(stream, kAttNnzPerRow, r);
    const col_index base = A.att_offset + A.idx_att[r];
    real sum = 0;
    for (int blk = 0; blk < kAttBlocks; ++blk) {
      const real* GAIA_RESTRICT xb = x + base + blk * A.att_stride;
      const CoefT* GAIA_RESTRICT rb =
          rv + blk * kAttBlockSize * matrix::kSoaTileRows;
      GAIA_OMP_SIMD_REDUCTION(sum)
      for (int i = 0; i < kAttBlockSize; ++i)
        sum += load_real(rb[i * matrix::kSoaTileRows]) * xb[i];
    }
    y[r] += sum;
  });
}

template <typename Exec, typename CoefT = real>
void aprod1_instr_soa(const SystemView& A, const real* x, real* y,
                      KernelConfig cfg) {
  const CoefT* stream = A.coefs<CoefT>().soa_instr;
  Exec::launch(A.n_rows, cfg, [=](std::int64_t r) {
    const CoefT* GAIA_RESTRICT rv =
        detail::soa_row(stream, kInstrNnzPerRow, r);
    const std::int32_t* GAIA_RESTRICT cols =
        A.instr_col + r * kInstrNnzPerRow;
    const real* GAIA_RESTRICT xs = x + A.instr_offset;
    real sum = 0;
    GAIA_OMP_SIMD_REDUCTION(sum)
    for (int i = 0; i < kInstrNnzPerRow; ++i)
      sum += load_real(rv[i * matrix::kSoaTileRows]) * xs[cols[i]];
    y[r] += sum;
  });
}

template <typename Exec, typename CoefT = real>
void aprod1_glob_soa(const SystemView& A, const real* x, real* y,
                     KernelConfig cfg) {
  if (!A.has_global) return;
  const real xg = x[A.glob_offset];
  const CoefT* stream = A.coefs<CoefT>().soa_glob;
  Exec::launch(A.n_rows, cfg, [=](std::int64_t r) {
    const std::int64_t t = r / matrix::kSoaTileRows;
    y[r] += load_real(
                stream[t * matrix::kSoaTileRows +
                       (r - t * matrix::kSoaTileRows)]) *
            xg;
  });
}

template <typename Exec, typename CoefT = real>
void aprod2_astro_soa(const SystemView& A, const real* y, real* x,
                      KernelConfig cfg) {
  const CoefT* stream = A.coefs<CoefT>().soa_astro;
  Exec::launch(A.n_stars, cfg, [=](std::int64_t s) {
    const col_index c0 = s * kAstroParamsPerStar;
    real acc[kAstroNnzPerRow] = {0, 0, 0, 0, 0};
    for (row_index r = A.star_row_start[s]; r < A.star_row_start[s + 1];
         ++r) {
      const CoefT* rv = detail::soa_row(stream, kAstroNnzPerRow, r);
      const real yr = y[r];
      for (int i = 0; i < kAstroNnzPerRow; ++i)
        acc[i] += load_real(rv[i * matrix::kSoaTileRows]) * yr;
    }
    for (int i = 0; i < kAstroNnzPerRow; ++i) x[c0 + i] += acc[i];
  });
}

template <typename Exec, typename CoefT = real>
void aprod2_att_soa(const SystemView& A, const real* y, real* x,
                    KernelConfig cfg, AtomicMode mode) {
  const CoefT* stream = A.coefs<CoefT>().soa_att;
  Exec::launch(A.n_rows, cfg, [=](std::int64_t r) {
    const CoefT* rv = detail::soa_row(stream, kAttNnzPerRow, r);
    const real yr = y[r];
    const col_index base = A.att_offset + A.idx_att[r];
    for (int blk = 0; blk < kAttBlocks; ++blk) {
      const col_index c0 = base + blk * A.att_stride;
      for (int i = 0; i < kAttBlockSize; ++i)
        Exec::atomic_add(
            x[c0 + i],
            load_real(rv[(blk * kAttBlockSize + i) * matrix::kSoaTileRows]) *
                yr,
            mode);
    }
  });
}

template <typename Exec, typename CoefT = real>
void aprod2_instr_soa(const SystemView& A, const real* y, real* x,
                      KernelConfig cfg, AtomicMode mode) {
  const CoefT* stream = A.coefs<CoefT>().soa_instr;
  Exec::launch(A.n_rows, cfg, [=](std::int64_t r) {
    const CoefT* rv = detail::soa_row(stream, kInstrNnzPerRow, r);
    const std::int32_t* cols = A.instr_col + r * kInstrNnzPerRow;
    const real yr = y[r];
    for (int i = 0; i < kInstrNnzPerRow; ++i)
      Exec::atomic_add(x[A.instr_offset + cols[i]],
                       load_real(rv[i * matrix::kSoaTileRows]) * yr, mode);
  });
}

template <typename Exec, typename CoefT = real>
void aprod2_glob_soa(const SystemView& A, const real* y, real* x,
                     KernelConfig cfg, AtomicMode mode) {
  if (!A.has_global) return;
  const CoefT* stream = A.coefs<CoefT>().soa_glob;
  Exec::launch(A.n_rows, cfg, [=](std::int64_t r) {
    const std::int64_t t = r / matrix::kSoaTileRows;
    Exec::atomic_add(
        x[A.glob_offset],
        load_real(stream[t * matrix::kSoaTileRows +
                         (r - t * matrix::kSoaTileRows)]) *
            y[r],
        mode);
  });
}

template <typename Exec, typename CoefT = real>
void aprod2_att_privatized_soa(const SystemView& A, const real* y, real* x,
                               KernelConfig cfg,
                               backends::ScratchArena* arena = nullptr) {
  const CoefT* stream = A.coefs<CoefT>().soa_att;
  detail::privatized_scatter<Exec>(
      A.n_rows, x, A.att_offset, A.instr_offset - A.att_offset, cfg, arena,
      [=](real* GAIA_RESTRICT slice, std::int64_t r) {
        const CoefT* GAIA_RESTRICT rv =
            detail::soa_row(stream, kAttNnzPerRow, r);
        const real yr = y[r];
        const col_index base = A.idx_att[r];
        for (int blk = 0; blk < kAttBlocks; ++blk) {
          const col_index c0 = base + blk * A.att_stride;
          for (int i = 0; i < kAttBlockSize; ++i)
            slice[c0 + i] +=
                load_real(rv[(blk * kAttBlockSize + i) *
                             matrix::kSoaTileRows]) *
                yr;
        }
      });
}

template <typename Exec, typename CoefT = real>
void aprod2_instr_privatized_soa(const SystemView& A, const real* y, real* x,
                                 KernelConfig cfg,
                                 backends::ScratchArena* arena = nullptr) {
  const CoefT* stream = A.coefs<CoefT>().soa_instr;
  detail::privatized_scatter<Exec>(
      A.n_rows, x, A.instr_offset, A.glob_offset - A.instr_offset, cfg,
      arena, [=](real* GAIA_RESTRICT slice, std::int64_t r) {
        const CoefT* GAIA_RESTRICT rv =
            detail::soa_row(stream, kInstrNnzPerRow, r);
        const std::int32_t* GAIA_RESTRICT cols =
            A.instr_col + r * kInstrNnzPerRow;
        const real yr = y[r];
        for (int i = 0; i < kInstrNnzPerRow; ++i)
          slice[cols[i]] += load_real(rv[i * matrix::kSoaTileRows]) * yr;
      });
}

template <typename Exec, typename CoefT = real>
void aprod2_glob_privatized_soa(const SystemView& A, const real* y, real* x,
                                KernelConfig cfg,
                                backends::ScratchArena* arena = nullptr) {
  if (!A.has_global) return;
  const CoefT* stream = A.coefs<CoefT>().soa_glob;
  detail::privatized_scatter<Exec>(
      A.n_rows, x, A.glob_offset, 1, cfg, arena,
      [=](real* GAIA_RESTRICT slice, std::int64_t r) {
        const std::int64_t t = r / matrix::kSoaTileRows;
        slice[0] += load_real(stream[t * matrix::kSoaTileRows +
                                     (r - t * matrix::kSoaTileRows)]) *
                    y[r];
      });
}

// ---------------------------------------------------------------------------
// StorageLayout::kSlicedInstr bodies: SELL-C-sigma slices for the
// irregular instrumental block (regular blocks run the SoA bodies)
// ---------------------------------------------------------------------------

/// Slice-parallel instrumental gather: one virtual thread per lane slot.
/// Every row occupies exactly one slot, so y[r] is written by exactly
/// one worker; padded lanes carry row -1 and are skipped. The slice
/// sort means neighbouring lanes gather neighbouring x entries — the
/// cache reuse the seed layout's ~90 % miss rate leaves on the table.
template <typename Exec, typename CoefT = real>
void aprod1_instr_sliced(const SystemView& A, const real* x, real* y,
                         KernelConfig cfg) {
  const CoefT* svals = A.coefs<CoefT>().slice_values;
  Exec::launch(A.n_slices * matrix::kSliceHeight, cfg,
               [=](std::int64_t slot) {
    const row_index r = A.slice_rows[slot];
    if (r < 0) return;
    const std::int64_t s = slot / matrix::kSliceHeight;
    const std::int64_t lane = slot - s * matrix::kSliceHeight;
    const std::int64_t base =
        s * kInstrNnzPerRow * matrix::kSliceHeight + lane;
    const CoefT* GAIA_RESTRICT v = svals + base;
    const std::int32_t* GAIA_RESTRICT c = A.slice_cols + base;
    const real* GAIA_RESTRICT xs = x + A.instr_offset;
    real sum = 0;
    GAIA_OMP_SIMD_REDUCTION(sum)
    for (int j = 0; j < kInstrNnzPerRow; ++j)
      sum += load_real(v[j * matrix::kSliceHeight]) *
             xs[c[j * matrix::kSliceHeight]];
    y[r] += sum;
  });
}

/// Slice-parallel instrumental scatter (atomic strategy): the sort
/// clusters nearby target columns within a slice, trading a few more
/// intra-slice collisions for far better locality on x.
template <typename Exec, typename CoefT = real>
void aprod2_instr_sliced(const SystemView& A, const real* y, real* x,
                         KernelConfig cfg, AtomicMode mode) {
  const CoefT* svals = A.coefs<CoefT>().slice_values;
  Exec::launch(A.n_slices * matrix::kSliceHeight, cfg,
               [=](std::int64_t slot) {
    const row_index r = A.slice_rows[slot];
    if (r < 0) return;
    const std::int64_t s = slot / matrix::kSliceHeight;
    const std::int64_t lane = slot - s * matrix::kSliceHeight;
    const std::int64_t base =
        s * kInstrNnzPerRow * matrix::kSliceHeight + lane;
    const CoefT* GAIA_RESTRICT v = svals + base;
    const std::int32_t* GAIA_RESTRICT c = A.slice_cols + base;
    const real yr = y[r];
    for (int j = 0; j < kInstrNnzPerRow; ++j)
      Exec::atomic_add(x[A.instr_offset + c[j * matrix::kSliceHeight]],
                       load_real(v[j * matrix::kSliceHeight]) * yr, mode);
  });
}

/// Privatized instrumental scatter over the sliced storage: the
/// skeleton keeps iterating rows in ascending order (via the row->slot
/// inverse permutation), so worker partitioning, per-row accumulation
/// order and the tree fold are exactly the seed layout's — bit-identical
/// results at a fixed launch shape, layout notwithstanding.
template <typename Exec, typename CoefT = real>
void aprod2_instr_privatized_sliced(const SystemView& A, const real* y,
                                    real* x, KernelConfig cfg,
                                    backends::ScratchArena* arena = nullptr) {
  const CoefT* svals = A.coefs<CoefT>().slice_values;
  detail::privatized_scatter<Exec>(
      A.n_rows, x, A.instr_offset, A.glob_offset - A.instr_offset, cfg,
      arena, [=](real* GAIA_RESTRICT slice, std::int64_t r) {
        const std::int64_t slot = A.slice_row_slot[r];
        const std::int64_t s = slot / matrix::kSliceHeight;
        const std::int64_t lane = slot - s * matrix::kSliceHeight;
        const std::int64_t base =
            s * kInstrNnzPerRow * matrix::kSliceHeight + lane;
        const CoefT* GAIA_RESTRICT v = svals + base;
        const std::int32_t* GAIA_RESTRICT c = A.slice_cols + base;
        const real yr = y[r];
        for (int j = 0; j < kInstrNnzPerRow; ++j)
          slice[c[j * matrix::kSliceHeight]] +=
              load_real(v[j * matrix::kSliceHeight]) * yr;
      });
}

}  // namespace gaia::core
