/// \file profile.hpp
/// \brief The `--profile` view: per-kernel launch totals and the split
/// of the iteration wall time, both read from the metrics registry.
///
/// The paper verifies with vendor profilers that aprod1/aprod2 dominate
/// the iteration (SV-A). Here every number comes from the series the one
/// timing primitive (`obs::ScopedTrace`) feeds: the per-kernel
/// `kernel.<k>.<b>.<s>.time_seconds` histograms, and the phase
/// histograms below, recorded inside each LSQR iteration. The split is
/// of the summed iteration wall time, so its shares add up to 100 %: the
/// aprod2 phase is the pass wall time, not the sum of its overlapped
/// stream kernels, and whatever no phase covers is an explicit `other`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace gaia::obs {

/// Registry series of the iteration split. Like the solve's other
/// `lsqr.*` series they are recorded on rank 0 only at several ranks,
/// so numerators and denominator always cover the same rank.
inline constexpr const char* kIterationSeconds = "lsqr.iteration_seconds";
inline constexpr const char* kAprod1PassSeconds = "lsqr.aprod1_pass_seconds";
inline constexpr const char* kAprod2PassSeconds = "lsqr.aprod2_pass_seconds";
inline constexpr const char* kBlas1ScaleSeconds = "lsqr.blas1_scale_seconds";
inline constexpr const char* kBlas1UpdatesSeconds =
    "lsqr.blas1_updates_seconds";
inline constexpr const char* kReductionSeconds = "lsqr.reduction_norm_seconds";

/// One line of the split.
struct SplitPart {
  std::string label;
  double seconds = 0;
};

/// The summed iteration wall time split into aprod1 pass, aprod2 pass,
/// BLAS-1, reductions and `other` (recurrence scalars, ABFT checks, the
/// aprod2 allreduce at several ranks, telemetry).
struct IterationSplit {
  std::uint64_t iterations = 0;
  double iteration_s = 0;        ///< summed iteration wall time
  std::vector<SplitPart> parts;  ///< the four phases, then "other"

  /// Summed shares in percent: 100 when the phases fit inside the
  /// iteration time; above 100 when they overran it (`other` is then 0).
  [[nodiscard]] double share_sum_pct() const;
};

[[nodiscard]] IterationSplit iteration_split(
    const std::vector<MetricRow>& rows);

/// Both tables as text, from a registry snapshot.
[[nodiscard]] std::string profile_report(const std::vector<MetricRow>& rows);

}  // namespace gaia::obs
