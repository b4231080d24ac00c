/// \file precision.hpp
/// \brief Reduced-precision storage of the coefficient planes.
///
/// The aprod kernels are memory-bandwidth-bound (paper §VI): iteration
/// time tracks the bytes of coefficient data streamed per pass, not the
/// FLOPs. Storing the astro/att/instr/glob coefficient planes in FP32
/// (or a BF16-style truncated-FP32 format) halves/quarters that stream
/// while every kernel body keeps accumulating in FP64 — the same
/// mixed-precision split the exascale follow-ups to the production
/// solver study (arXiv 2308.00778, 2503.22863). Precision is therefore
/// a storage/tuning axis of its own, exactly parallel to StorageLayout:
///
///  * `kFp64`  — the seed's double-precision planes, bit for bit. All
///    existing checkpoints, checksums and tuning entries keep meaning.
///  * `kFp32`  — coefficients down-converted once (round-to-nearest) at
///    build time; kernels convert on load and do all math in FP64.
///  * `kBf16s` — "bf16 storage": the top 16 bits of the FP32 encoding
///    (sign + 8-bit exponent + 7-bit mantissa). Same dynamic range as
///    FP32 at a quarter of the FP64 bytes; decode is a shift, not a
///    table.
///
/// Only *storage* changes. Accumulation stays FP64 everywhere because
/// the astrometric solution needs ~1e-11 rad accuracy (§V-C) and LSQR's
/// recurrences amplify rounding in the accumulator, not in A's entries;
/// perturbing A is equivalent to solving a nearby system, which outer
/// iterative refinement then corrects in full precision.
///
/// Header-only on purpose: `backends` (KernelConfig) must see the enum
/// but does not link `gaia_matrix`.
#pragma once

#include <bit>
#include <cstdint>

#include "util/types.hpp"

namespace gaia::matrix {

enum class Precision : std::uint8_t {
  kFp64 = 0,
  kFp32,
  kBf16s,
};

inline constexpr int kNumPrecisions = 3;

/// Truncated-FP32 storage scalar ("bf16 storage"). Holds the high 16
/// bits of the IEEE-754 single-precision encoding: 1 sign + 8 exponent
/// + 7 mantissa bits — bfloat16's layout, chosen over IEEE half because
/// the coefficient planes span many decades (parallax factors vs
/// instrument terms) and range matters more than the last mantissa
/// bits, which refinement recovers anyway.
struct bf16s {
  std::uint16_t bits = 0;
};

/// fp64 -> bf16s: round to nearest FP32 first (the compiler's cast),
/// then truncate the low 16 mantissa bits. Truncation (not
/// round-to-nearest-even on the 16-bit boundary) keeps the conversion a
/// pure bit operation — deterministic across compilers and backends,
/// which the down-conversion round-trip tests pin down.
[[nodiscard]] inline bf16s to_bf16s(real v) {
  const auto u = std::bit_cast<std::uint32_t>(static_cast<float>(v));
  return bf16s{static_cast<std::uint16_t>(u >> 16)};
}

/// bf16s -> fp64: widen to the FP32 it truncates (low bits zero), then
/// to double. Exact — no rounding on the way back up.
[[nodiscard]] inline real from_bf16s(bf16s v) {
  const auto u = static_cast<std::uint32_t>(v.bits) << 16;
  return static_cast<real>(std::bit_cast<float>(u));
}

/// Kernel-side load converters: one overload per storage scalar, all
/// returning FP64. The CoefT = real instantiation is the identity, so
/// the fp64 kernel bodies compile to exactly the pre-precision code.
[[nodiscard]] inline real load_real(real v) { return v; }
[[nodiscard]] inline real load_real(float v) { return static_cast<real>(v); }
[[nodiscard]] inline real load_real(bf16s v) { return from_bf16s(v); }

/// Storage bytes of one coefficient under `p` (traffic accounting).
[[nodiscard]] inline constexpr int precision_bytes(Precision p) {
  switch (p) {
    case Precision::kFp64:
      return 8;
    case Precision::kFp32:
      return 4;
    case Precision::kBf16s:
      return 2;
  }
  return 8;
}

}  // namespace gaia::matrix
