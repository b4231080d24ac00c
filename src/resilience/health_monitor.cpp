#include "resilience/health_monitor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "obs/metrics.hpp"
#include "resilience/checkpoint.hpp"

namespace gaia::resilience {

std::string to_string(HealthMode mode) {
  switch (mode) {
    case HealthMode::kOff:
      return "off";
    case HealthMode::kDetect:
      return "detect";
    case HealthMode::kRepair:
      return "repair";
  }
  return "off";
}

std::optional<HealthMode> parse_health_mode(const std::string& name) {
  if (name == "off") return HealthMode::kOff;
  if (name == "detect") return HealthMode::kDetect;
  if (name == "repair") return HealthMode::kRepair;
  return std::nullopt;
}

HealthConfig health_config_from_env(const std::string& mode_override,
                                    std::int64_t every_override) {
  HealthConfig config;
  std::string mode_name = mode_override;
  if (mode_name.empty()) {
    if (const char* env = std::getenv(kHealthEnv);
        env != nullptr && *env != '\0')
      mode_name = env;
  }
  if (!mode_name.empty()) {
    const auto mode = parse_health_mode(mode_name);
    GAIA_CHECK(mode.has_value(),
               "unknown health mode '" + mode_name +
                   "' (expected off|detect|repair)");
    config.mode = *mode;
  }
  if (every_override > 0) {
    config.check_every = every_override;
  } else if (const char* env = std::getenv(kHealthEveryEnv);
             env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long long every = std::strtoll(env, &end, 10);
    GAIA_CHECK(end != env && *end == '\0' && every > 0,
               std::string("bad ") + kHealthEveryEnv + " value '" + env +
                   "'");
    config.check_every = every;
  }
  return config;
}

std::string to_string(HealthInvariant invariant) {
  switch (invariant) {
    case HealthInvariant::kNone:
      return "none";
    case HealthInvariant::kScalarFinite:
      return "scalar-finite";
    case HealthInvariant::kScalarSign:
      return "scalar-sign";
    case HealthInvariant::kRnormDivergence:
      return "rnorm-divergence";
    case HealthInvariant::kSegmentChecksum:
      return "segment-checksum";
    case HealthInvariant::kUnitNorm:
      return "unit-norm";
    case HealthInvariant::kXnormAgreement:
      return "xnorm-agreement";
    case HealthInvariant::kResidualAgreement:
      return "residual-agreement";
    case HealthInvariant::kStateHashDisagreement:
      return "state-hash-disagreement";
    case HealthInvariant::kKernelChecksum:
      return "kernel-checksum";
  }
  return "none";
}

std::string HealthVerdict::describe() const {
  std::ostringstream os;
  os << "invariant '" << to_string(invariant) << "' tripped at iteration "
     << iteration << " on rank " << rank;
  if (!detail.empty()) os << ": " << detail;
  return os.str();
}

HealthMonitor::HealthMonitor(HealthConfig config, int rank)
    : config_(config), rank_(rank) {
  if (config_.window > 0)
    window_.reserve(static_cast<std::size_t>(config_.window));
}

HealthVerdict HealthMonitor::check_scalars(std::int64_t iteration,
                                           real alpha, real beta,
                                           real rnorm, real arnorm,
                                           real xnorm) {
  HealthVerdict verdict;
  verdict.iteration = iteration;
  verdict.rank = rank_;
  const struct {
    const char* name;
    real value;
  } scalars[] = {{"alpha", alpha},
                 {"beta", beta},
                 {"rnorm", rnorm},
                 {"arnorm", arnorm},
                 {"xnorm", xnorm}};
  for (const auto& s : scalars) {
    if (!std::isfinite(s.value)) {
      verdict.invariant = HealthInvariant::kScalarFinite;
      std::ostringstream os;
      os << s.name << " = " << s.value;
      verdict.detail = os.str();
      return verdict;
    }
  }
  // alpha and beta are vector norms; a negative value can only come
  // from corrupted scalar state (a restored checkpoint gone bad).
  for (const auto& s : {scalars[0], scalars[1]}) {
    if (s.value < 0) {
      verdict.invariant = HealthInvariant::kScalarSign;
      std::ostringstream os;
      os << s.name << " = " << s.value << " < 0";
      verdict.detail = os.str();
      return verdict;
    }
  }
  return verdict;
}

HealthVerdict HealthMonitor::check_rnorm_window(std::int64_t iteration,
                                                real rnorm) {
  HealthVerdict verdict;
  verdict.iteration = iteration;
  verdict.rank = rank_;
  if (config_.window <= 0 || config_.rnorm_growth_ratio <= 0)
    return verdict;
  if (!window_.empty()) {
    const real window_min = *std::min_element(window_.begin(), window_.end());
    if (window_min > 0 && rnorm > config_.rnorm_growth_ratio * window_min) {
      verdict.invariant = HealthInvariant::kRnormDivergence;
      std::ostringstream os;
      os << "rnorm " << rnorm << " > " << config_.rnorm_growth_ratio
         << " x window min " << window_min;
      verdict.detail = os.str();
      return verdict;
    }
  }
  if (window_.size() >= static_cast<std::size_t>(config_.window))
    window_.erase(window_.begin());
  window_.push_back(rnorm);
  return verdict;
}

HealthVerdict HealthMonitor::check_vector(std::int64_t iteration,
                                          std::string_view name,
                                          std::span<const real> v,
                                          real expected_norm, real rel_tol,
                                          HealthInvariant norm_invariant) {
  HealthVerdict verdict;
  verdict.iteration = iteration;
  verdict.rank = rank_;
  if (v.empty()) return verdict;
  const int n_segments = std::max(
      1, std::min(config_.segments, static_cast<int>(v.size())));
  const std::size_t seg_len =
      (v.size() + static_cast<std::size_t>(n_segments) - 1) /
      static_cast<std::size_t>(n_segments);
  real sum_sq = 0;
  for (int s = 0; s < n_segments; ++s) {
    const std::size_t begin = static_cast<std::size_t>(s) * seg_len;
    const std::size_t end = std::min(v.size(), begin + seg_len);
    real sum = 0, comp = 0;  // Kahan per segment, like vnorm
    for (std::size_t i = begin; i < end; ++i) {
      const real term = v[i] * v[i] - comp;
      const real next = sum + term;
      comp = (next - sum) - term;
      sum = next;
    }
    if (!std::isfinite(sum)) {
      verdict.invariant = HealthInvariant::kSegmentChecksum;
      std::ostringstream os;
      os << name << " segment " << s << "/" << n_segments << " (elements ["
         << begin << ", " << end << ")) is non-finite";
      verdict.detail = os.str();
      return verdict;
    }
    sum_sq += sum;
  }
  if (expected_norm >= 0 && rel_tol > 0) {
    const real norm = std::sqrt(sum_sq);
    const real scale = std::max({std::abs(expected_norm), std::abs(norm),
                                 std::numeric_limits<real>::min()});
    if (std::abs(norm - expected_norm) > rel_tol * scale) {
      verdict.invariant = norm_invariant;
      std::ostringstream os;
      os << "||" << name << "|| = " << norm << " vs expected "
         << expected_norm << " (rel tol " << rel_tol << ")";
      verdict.detail = os.str();
      return verdict;
    }
  }
  return verdict;
}

HealthVerdict HealthMonitor::check_agreement(std::int64_t iteration,
                                             std::string_view name,
                                             real value, real estimate,
                                             real rel_tol,
                                             HealthInvariant invariant) {
  HealthVerdict verdict;
  verdict.iteration = iteration;
  verdict.rank = rank_;
  if (!std::isfinite(value) || !std::isfinite(estimate)) {
    verdict.invariant = invariant;
    std::ostringstream os;
    os << name << " recomputed " << value << " vs estimate " << estimate
       << " (non-finite)";
    verdict.detail = os.str();
    return verdict;
  }
  const real scale = std::max({std::abs(value), std::abs(estimate),
                               std::numeric_limits<real>::min()});
  if (std::abs(value - estimate) > rel_tol * scale) {
    verdict.invariant = invariant;
    std::ostringstream os;
    os << name << " recomputed " << value << " vs estimate " << estimate
       << " (rel mismatch " << std::abs(value - estimate) / scale
       << ", tol " << rel_tol << ")";
    verdict.detail = os.str();
  }
  return verdict;
}

HealthVerdict HealthMonitor::check_kernel_checksum(std::int64_t iteration,
                                                   std::string_view kernel,
                                                   real actual,
                                                   real expected,
                                                   real scale) {
  HealthVerdict verdict;
  verdict.iteration = iteration;
  verdict.rank = rank_;
  const real tol = config_.abft_rel_tol * std::max(scale, real{1});
  if (!std::isfinite(actual) || !std::isfinite(expected) ||
      std::abs(actual - expected) > tol) {
    verdict.invariant = HealthInvariant::kKernelChecksum;
    std::ostringstream os;
    os << kernel << " output checksum " << actual << " vs expected "
       << expected << " (|diff| " << std::abs(actual - expected)
       << ", tol " << tol << ")";
    verdict.detail = os.str();
  }
  return verdict;
}

void HealthMonitor::note_deep_check() {
  ++checks_;
  auto& reg = obs::MetricsRegistry::global();
  if (rank_ == 0 && reg.enabled()) reg.counter("resilience.sdc.checks").add(1);
}

void HealthMonitor::record_detection(const HealthVerdict& verdict) {
  ++detections_;
  if (first_detection_ < 0) first_detection_ = verdict.iteration;
  last_diagnosis_ = verdict.describe();
  if (rank_ != 0) return;
  note_resilience_event("sdc.detected", last_diagnosis_);
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled())
    reg.counter("resilience.sdc.invariant." + to_string(verdict.invariant))
        .add(1);
}

void HealthMonitor::record_repair(std::int64_t iteration,
                                  std::int64_t restored_iteration) {
  ++repairs_;
  if (rank_ != 0) return;
  note_resilience_event(
      "sdc.repaired", "rolled back from iteration " +
                          std::to_string(iteration) + " to " +
                          std::to_string(restored_iteration));
}

void HealthMonitor::record_unrepaired(const HealthVerdict& verdict) {
  unrepaired_ = true;
  last_diagnosis_ = verdict.describe();
  if (rank_ == 0) note_resilience_event("sdc.unrepaired", last_diagnosis_);
}

void HealthMonitor::reset_window() { window_.clear(); }

HealthReport HealthMonitor::report() const {
  HealthReport report;
  report.mode = config_.mode;
  report.checks = checks_;
  report.detections = detections_;
  report.repairs = repairs_;
  report.first_detection_iteration = first_detection_;
  report.last_diagnosis = last_diagnosis_;
  report.unrepaired = unrepaired_;
  return report;
}

std::uint64_t state_hash(
    std::span<const real> scalars,
    std::initializer_list<std::span<const real>> vectors) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (real s : scalars)
    mix(std::bit_cast<std::uint64_t>(static_cast<double>(s)));
  for (std::span<const real> v : vectors)
    for (real e : v) mix(std::bit_cast<std::uint64_t>(static_cast<double>(e)));
  return h;
}

double fold_hash_to_real(std::uint64_t hash) {
  const std::uint64_t folded =
      (hash ^ (hash >> 52)) & ((std::uint64_t{1} << 52) - 1);
  return static_cast<double>(folded);
}

}  // namespace gaia::resilience
