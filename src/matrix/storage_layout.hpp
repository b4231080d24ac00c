/// \file storage_layout.hpp
/// \brief Pluggable coefficient-storage layouts for the system matrix.
///
/// The aprod kernels are memory-bandwidth-bound (paper §VI), and the
/// seed stores all 24 per-row coefficients in one AoS-ish record: any
/// kernel that needs only its 5/12/6/1-coefficient slice still streams
/// the full 192-byte record through the cache. Layout is therefore a
/// performance axis of its own, next to the launch shape and scatter
/// strategy:
///
///  * `kSeedAos`     — the seed's row-record layout, bit-for-bit. All
///    existing checkpoints, ABFT checksums, and tuning entries keep
///    their meaning.
///  * `kSoaTiled`    — one structure-of-arrays stream per coefficient
///    position, plane-major within cache-blocked row tiles: kernel k
///    streams exactly its own coefficients, contiguously, one tile at
///    a time.
///  * `kSlicedInstr` — SoA-tiled astro/att/glob streams plus a
///    SELL-C-sigma-style sliced format for the irregular instrumental
///    block: rows are sorted by their first instrumental column within
///    a sigma window, grouped into fixed-height slices, and stored
///    lane-major with padded lanes so consecutive workers touch
///    consecutive memory and nearby columns.
///
/// Header-only on purpose: `backends` (KernelConfig) must see the enum
/// but does not link `gaia_matrix`.
#pragma once

#include <cstdint>

namespace gaia::matrix {

enum class StorageLayout : std::uint8_t {
  kSeedAos = 0,
  kSoaTiled,
  kSlicedInstr,
};

inline constexpr int kNumStorageLayouts = 3;

/// Rows per SoA tile. 256 rows x 8 B doubles keeps one coefficient
/// plane of a tile (2 KiB) plus the gather indices comfortably in L1
/// while amortizing the tile-switch bookkeeping.
inline constexpr std::int64_t kSoaTileRows = 256;

/// Lanes per instrumental slice (the C of SELL-C-sigma). 64 matches
/// both a GPU warp pair and a full cache line of row indices.
inline constexpr std::int64_t kSliceHeight = 64;

/// Rows per slice-sorting window (the sigma). Sorting only within a
/// bounded window keeps the build O(n log sigma) and the row->slice
/// permutation local, which bounds the scatter working set.
inline constexpr std::int64_t kSliceSigmaWindow = 4096;

}  // namespace gaia::matrix
