#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

namespace core = gaia::core;
namespace backends = gaia::backends;

namespace {

/// LSQR stops on its own rule at this tolerance (atol = btol), which at
/// 1e-16 is its machine-precision test. Looser settings stop early
/// enough to fail the gate: at 1e-15 the 256 MiB system of seed 11001
/// stops after 158 iterations with 12.1 µas of error, where 1e-16 takes
/// 176 iterations to 5.8 µas; at 1e-14 and 1e-12 one seed each already
/// fails at 256 and 64 MiB.
constexpr real kStopTolerance = 1e-16;
/// Hitting this cap counts as a failed solve.
constexpr std::int64_t kIterationCap = 2000;

gaia::matrix::GeneratorConfig ground_truth_system(gaia::byte_size bytes,
                                                  std::uint64_t seed) {
  auto gen = gaia::matrix::config_for_footprint(bytes, seed);
  gen.rhs_mode = gaia::matrix::RhsMode::kFromGroundTruth;
  gen.noise_sigma = 0;
  return gen;
}

core::SolverRunConfig base_config(gaia::byte_size bytes, std::uint64_t seed) {
  core::SolverRunConfig cfg;
  cfg.generator = ground_truth_system(bytes, seed);
  cfg.footprint_bytes = bytes;
  cfg.seed = seed;
  cfg.lsqr.atol = kStopTolerance;
  cfg.lsqr.btol = kStopTolerance;
  cfg.lsqr.max_iterations = kIterationCap;
  return cfg;
}

/// The measured-fast kernel configuration: OpenMP, privatized scatter,
/// no stream overlap, SoA layout.
void use_tuned_kernels(core::SolverRunConfig& cfg) {
  cfg.lsqr.aprod.backend = backends::BackendKind::kOpenMP;
  cfg.lsqr.aprod.use_streams = false;
  cfg.scatter = core::ScatterMode::kPrivatized;
  cfg.storage_layout = core::LayoutMode::kSoa;
}

}  // namespace

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed,
                                      const std::string& work_dir) {
  Workload w;
  w.name = name;
  if (name == "default-64m") {
    // What a user gets with no flags (gpusim, atomic scatter, streams
    // on, seed layout, fp64). The aprod layer dominates (~93 % of the
    // run); setup is small. A change of the library defaults shows here.
    w.config = base_config(64 * gaia::kMiB, seed);
  } else if (name == "tuned-256m") {
    // The measured-fast path at a size whose working set does not stay
    // cache-resident. Setup layers (generation, upload, layout build,
    // the tuning search) are a large share, and it is the only workload
    // with the checkpoint write path.
    w.config = base_config(256 * gaia::kMiB, seed);
    use_tuned_kernels(w.config);
    w.config.autotune.enabled = true;  // pinned axes, no cache file
    w.config.checkpoint.directory = work_dir + "/ckpt";
    w.config.checkpoint.every = 25;
  } else if (name == "refine-fp32-64m") {
    // The refinement layer does most of the work: correction solves
    // rerun long LSQR budgets. Same kernels as tuned-256m but reading
    // fp32 planes, so a kernel change that helps fp64 but hurts fp32
    // shows here.
    w.config = base_config(64 * gaia::kMiB, seed);
    use_tuned_kernels(w.config);
    w.config.precision = core::PrecisionMode::kFp32;
  } else if (name == "dist4-64m") {
    // The only workload on dist/'s own LSQR loop and the Comm
    // collectives: 4 simulated ranks, serial backend each (4 threads).
    // Folding that loop into LsqrEngine must not slow this down.
    w.path = Path::kDist;
    w.config = base_config(64 * gaia::kMiB, seed);
    w.config.lsqr.aprod.backend = backends::BackendKind::kSerial;
    w.config.lsqr.aprod.use_streams = false;
    w.dist.n_ranks = 4;
    w.dist.lsqr = w.config.lsqr;
    for (backends::KernelId id : backends::all_kernels()) {
      if (!backends::kernel_uses_atomics(id)) continue;
      backends::KernelConfig kcfg = w.dist.lsqr.aprod.tuning.get(id);
      kcfg.strategy = backends::ScatterStrategy::kPrivatized;
      w.dist.lsqr.aprod.tuning.set(id, kcfg);
    }
  } else {
    return std::nullopt;
  }
  return w;
}

GateVerdict accuracy_gate(std::span<const real> x,
                          std::span<const real> x_true) {
  GateVerdict v;
  if (x.size() != x_true.size() || x.empty()) {
    v.reason = "solution size mismatch";
    return v;
  }
  double max_err = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!std::isfinite(x[i])) {
      v.reason = "non-finite unknown";
      v.max_err_uas = INFINITY;
      return v;
    }
    max_err = std::max(max_err, std::abs(double(x[i]) - double(x_true[i])));
  }
  v.max_err_uas = max_err / gaia::kMicroArcsecInRad;
  v.accepted = max_err <= gaia::kAccuracyGoalRad;
  if (!v.accepted) v.reason = "max error above the 10 uas goal";
  return v;
}

std::string hash_solution(std::span<const real> x) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(x.data());
  for (std::size_t i = 0; i < x.size_bytes(); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void JsonObject::key(const std::string& k) {
  if (!first_) os_ << ',';
  first_ = false;
  os_ << '"' << k << "\":";
}

JsonObject& JsonObject::num(const std::string& k, double value) {
  key(k);
  if (std::isfinite(value)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    os_ << buf;
  } else {
    os_ << "null";
  }
  return *this;
}

JsonObject& JsonObject::integer(const std::string& k, std::int64_t value) {
  key(k);
  os_ << value;
  return *this;
}

JsonObject& JsonObject::str(const std::string& k, const std::string& value) {
  key(k);
  os_ << '"';
  for (char c : value) {
    if (c == '"' || c == '\\') os_ << '\\';
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    os_ << c;
  }
  os_ << '"';
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& k, bool value) {
  key(k);
  os_ << (value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::array(const std::string& k,
                              std::span<const double> values) {
  key(k);
  os_ << '[';
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", values[i]);
    os_ << (i ? "," : "") << buf;
  }
  os_ << ']';
  return *this;
}

JsonObject& JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  os_ << json;
  return *this;
}

}  // namespace perfbench
