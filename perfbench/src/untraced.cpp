#include <cmath>
#include <exception>
#include <iostream>
#include <numeric>

#include "bench.hpp"
#include "obs/sampler.hpp"

namespace perfbench {

namespace core = gaia::core;

FirstIterationWatch::FirstIterationWatch() {
  gaia::obs::ProgressBoard::global().set_enabled(true);
  thread_ = std::thread([this] {
    auto& board = gaia::obs::ProgressBoard::global();
    while (!done_.load(std::memory_order_relaxed)) {
      for (const auto& row : board.snapshot()) {
        if (row.iteration < 1) continue;
        first_seen_ = Clock::now();
        iterations_seen_ = row.iteration;
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
}

FirstIterationWatch::~FirstIterationWatch() {
  stop();
  gaia::obs::ProgressBoard::global().set_enabled(false);
}

void FirstIterationWatch::stop() {
  done_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

std::optional<double> FirstIterationWatch::setup_seconds(
    Clock::time_point start, std::span<const double> iteration_s) const {
  if (iterations_seen_ < 1) return std::nullopt;
  const auto k = std::min<std::size_t>(
      static_cast<std::size_t>(iterations_seen_), iteration_s.size());
  const double done_s = std::accumulate(iteration_s.begin(),
                                        iteration_s.begin() + k, 0.0);
  return seconds_between(start, first_seen_) - done_s;
}

namespace {

struct Solved {
  std::vector<real> x;
  std::vector<real> x_true;
  std::vector<double> iteration_s;
  std::int64_t iterations = 0;
  core::LsqrStop istop = core::LsqrStop::kIterationLimit;
  std::int64_t resumed_from = -1;
};

/// The user-facing calls, untraced: `run_solver`, or for the dist
/// workload the two calls `gaia_solver --ranks N` makes.
Solved solve(const Workload& w) {
  Solved s;
  if (w.path == Path::kRunSolver) {
    core::SolverRunReport report = core::run_solver(w.config);
    s.x = std::move(report.result.x);
    s.iteration_s = std::move(report.result.iteration_seconds);
    s.iterations = report.result.iterations;
    s.istop = report.result.istop;
    s.resumed_from = report.resumed_from_iteration;
    return s;
  }
  gaia::matrix::GeneratedSystem gen =
      gaia::matrix::generate_system(*w.config.generator);
  gaia::dist::DistLsqrResult result = gaia::dist::dist_lsqr_solve(gen.A,
                                                                  w.dist);
  s.x = std::move(result.x);
  s.x_true = std::move(*gen.ground_truth);
  s.iteration_s = std::move(result.iteration_seconds);
  s.iterations = result.iterations;
  s.istop = result.istop;
  s.resumed_from = result.resumed_from_iteration;
  return s;
}

}  // namespace

int run_untraced(const Workload& w) {
  JsonObject out;
  Solved s;
  std::string failure;
  std::optional<double> setup_s;
  const Clock::time_point start = Clock::now();
  double tts = 0;
  {
    FirstIterationWatch watch;
    try {
      s = solve(w);
    } catch (const std::exception& e) {
      failure = std::string("threw: ") + e.what();
    }
    tts = seconds_between(start, Clock::now());
    watch.stop();
    setup_s = watch.setup_seconds(start, s.iteration_s);
  }
  const double rss = peak_rss_mib();

  GateVerdict gate;
  bool gate_rejects_bad_x = false;
  if (failure.empty()) {
    if (s.x_true.empty())
      s.x_true = std::move(
          *gaia::matrix::generate_system(*w.config.generator).ground_truth);
    gate = accuracy_gate(s.x, s.x_true);
    // Self-check on this very solution: moving its best unknown by twice
    // the goal must make the gate fail.
    std::vector<real> bad = s.x;
    std::size_t best = 0;
    for (std::size_t i = 0; i < bad.size() && i < s.x_true.size(); ++i)
      if (std::abs(bad[i] - s.x_true[i]) < std::abs(bad[best] - s.x_true[best]))
        best = i;
    if (!bad.empty()) bad[best] += 2 * gaia::kAccuracyGoalRad;
    gate_rejects_bad_x = !accuracy_gate(bad, s.x_true).accepted;
    if (s.istop == core::LsqrStop::kIterationLimit)
      failure = "hit the iteration cap";
    else if (s.resumed_from >= 0)
      failure = "resumed from a stale checkpoint";
    else if (!gate.accepted)
      failure = "gate: " + gate.reason;
  }
  out.str("mode", "solve")
      .str("workload", w.name)
      .boolean("accepted", failure.empty())
      .str("failure", failure)
      .num("time_to_solution_s", tts)
      .num("setup_s", setup_s.value_or(tts))
      .num("peak_rss_mib", rss)
      .integer("iterations", s.iterations)
      .str("stop", core::to_string(s.istop))
      .num("max_err_uas", gate.max_err_uas)
      .boolean("gate_rejects_bad_x", gate_rejects_bad_x)
      .str("x_hash", hash_solution(s.x))
      .array("iteration_s", s.iteration_s);
  std::cout << out.text() << std::endl;
  return 0;
}

}  // namespace perfbench
