/// \file model_drift_helper.hpp
/// \brief Shared bench plumbing for the model-drift report: run a real
/// host LSQR with the metrics registry on, read the measured per-kernel
/// times off its kernel series, and confront them with the cost model's
/// predictions for the same problem shape.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/lsqr.hpp"
#include "matrix/generator.hpp"
#include "metrics/model_drift.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "perfmodel/cost_model.hpp"
#include "perfmodel/problem_shape.hpp"

namespace gaia::bench {

/// Summed `time_seconds` of every kernel series, by kernel name.
inline std::map<std::string, double> kernel_seconds(
    const std::vector<obs::MetricRow>& rows) {
  std::map<std::string, double> seconds;
  obs::KernelSeriesName k;
  for (const obs::MetricRow& r : rows)
    if (obs::parse_kernel_series(r.name, k) && k.field == "time_seconds")
      seconds[k.kernel] += r.sum;
  return seconds;
}

/// Runs `iterations` LSQR steps of the generated system on the given
/// backend, then builds one drift row per aprod kernel: predicted =
/// cost-model kernel seconds on `spec` x iteration count, measured = the
/// growth of the kernel's `time_seconds` histogram sums over the run.
/// Reads two registry snapshots and resets nothing, so series an armed
/// obs::Session already collected survive.
inline metrics::ModelDriftReport host_drift_report(
    const matrix::GeneratorConfig& gen_cfg,
    const perfmodel::GpuSpec& spec,
    backends::BackendKind backend = backends::BackendKind::kGpuSim,
    int iterations = 20) {
  const auto gen = matrix::generate_system(gen_cfg);
  const perfmodel::ProblemShape shape =
      perfmodel::ProblemShape::from_config(gen_cfg);
  const perfmodel::KernelCostModel model(spec);
  const backends::TuningTable tuning = model.tuned_table();

  auto& reg = obs::MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  const auto before = kernel_seconds(reg.snapshot());

  core::LsqrOptions opts;
  opts.aprod.backend = backend;
  opts.aprod.use_streams = false;  // serialize so per-kernel times add up
  opts.aprod.tuning = tuning;
  opts.max_iterations = iterations;
  opts.compute_std_errors = false;
  core::lsqr_solve(gen.A, opts);

  auto after = kernel_seconds(reg.snapshot());
  reg.set_enabled(was_enabled);

  std::vector<metrics::KernelDrift> rows;
  for (int k = 0; k < backends::kNumKernels; ++k) {
    const auto id = static_cast<backends::KernelId>(k);
    metrics::KernelDrift row;
    row.kernel = backends::to_string(id);
    row.predicted_s =
        model.kernel_seconds(id, shape, tuning.get(id),
                             backends::AtomicMode::kNativeRmw) *
        iterations;
    const auto was = before.find(row.kernel);
    row.measured_s =
        after[row.kernel] - (was == before.end() ? 0.0 : was->second);
    rows.push_back(std::move(row));
  }
  return metrics::ModelDriftReport(std::move(rows));
}

/// The small-but-real system both drift benches measure.
inline matrix::GeneratorConfig drift_bench_config() {
  matrix::GeneratorConfig cfg;
  cfg.seed = 4242;
  cfg.n_stars = 2000;
  cfg.obs_per_star_mean = 30.0;
  cfg.att_dof_per_axis = 64;
  cfg.n_instr_params = 64;
  return cfg;
}

}  // namespace gaia::bench
