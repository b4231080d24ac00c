/// \file bench.hpp
/// \brief Shared declarations of the end-to-end benchmark binary.
///
/// The binary runs one measurement per process so that peak resident
/// memory belongs to exactly one solve. Its modes:
///  * `solve`  — one untraced solve through the user-facing calls;
///  * `trace`  — the traced replay of the same sequence plus the
///               apply/kernel micro-phases;
///  * `probe`  — this machine's STREAM triad and gather ceilings.
/// Each mode prints one JSON object on the last line of stdout.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.hpp"
#include "dist/dist_lsqr.hpp"

namespace perfbench {

using gaia::real;

/// Which public entry point a workload goes through.
enum class Path { kRunSolver, kDist };

struct Workload {
  std::string name;
  Path path = Path::kRunSolver;
  /// Always carries `generator` (the seeded ground-truth system).
  gaia::core::SolverRunConfig config;
  /// Used when path == kDist (its lsqr options mirror config.lsqr).
  gaia::dist::DistLsqrOptions dist;
};

/// The workload `name` built from `seed`; checkpoints (where the
/// workload writes them) go under `work_dir`. nullopt for unknown names.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed,
                                      const std::string& work_dir);

/// Outcome of the independent accuracy gate (paper §V-C: every unknown
/// within 10 µas of the ground truth).
struct GateVerdict {
  bool accepted = false;
  double max_err_uas = 0;
  std::string reason;
};
GateVerdict accuracy_gate(std::span<const real> x,
                          std::span<const real> x_true);

/// FNV-1a over the bytes of x: equal hashes mean bit-identical solutions.
std::string hash_solution(std::span<const real> x);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mib();

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of `v` (0 for an empty sample).
[[nodiscard]] double median(std::vector<double> v);

/// Observes, from outside the solver, when the first LSQR iteration of
/// a solve has completed: a watcher thread polls the library's public
/// progress board (which the engines update once per iteration) and
/// stops at the first row showing an iteration. Construct it right
/// before the solve. The board is enabled for the object's lifetime.
class FirstIterationWatch {
 public:
  FirstIterationWatch();
  ~FirstIterationWatch();
  FirstIterationWatch(const FirstIterationWatch&) = delete;
  FirstIterationWatch& operator=(const FirstIterationWatch&) = delete;

  /// Stops and joins the watcher (idempotent).
  void stop();
  /// Seconds from `start` to the start of the first iteration: the time
  /// the watcher first saw iteration k, minus the wall times of
  /// iterations 1..k. nullopt if no iteration was seen.
  [[nodiscard]] std::optional<double> setup_seconds(
      Clock::time_point start, std::span<const double> iteration_s) const;

 private:
  std::atomic<bool> done_{false};
  Clock::time_point first_seen_{};
  std::int64_t iterations_seen_ = 0;
  std::thread thread_;
};

/// Minimal JSON object writer (numbers keep all 17 significant digits).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& integer(const std::string& key, std::int64_t value);
  JsonObject& str(const std::string& key, const std::string& value);
  JsonObject& boolean(const std::string& key, bool value);
  JsonObject& array(const std::string& key, std::span<const double> values);
  JsonObject& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string text() const { return os_.str() + "}"; }

 private:
  void key(const std::string& k);
  std::ostringstream os_{"{", std::ios::ate};
  bool first_ = true;
};

/// Both write their JSON to stdout; the traced run also writes its span
/// log to `<work_dir>/spans.json`.
int run_untraced(const Workload& workload);
int run_traced(const Workload& workload, const std::string& run_id,
               const std::string& work_dir);
int run_probe();

}  // namespace perfbench
