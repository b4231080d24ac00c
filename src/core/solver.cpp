#include "core/solver.hpp"

#include <algorithm>
#include <exception>
#include <sstream>
#include <vector>

#include "core/autotune_driver.hpp"
#include "core/lsqr_engine.hpp"
#include "metrics/pennycook.hpp"
#include "metrics/roofline.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "perfmodel/cost_model.hpp"
#include "perfmodel/problem_shape.hpp"
#include "tuning/tuning_cache.hpp"
#include "util/stopwatch.hpp"
#include "util/string_utils.hpp"

namespace gaia::core {

namespace {

// Each mode enum lists its axis's arms in arm order, then kAuto.
constexpr int arm(auto e) { return static_cast<int>(e); }
static_assert(arm(ScatterMode::kPrivatized) ==
                  arm(backends::ScatterStrategy::kPrivatized) &&
              arm(ScatterMode::kAuto) == backends::kNumScatterStrategies);
static_assert(arm(LayoutMode::kSoa) ==
                  arm(backends::StorageLayout::kSoaTiled) &&
              arm(LayoutMode::kSliced) ==
                  arm(backends::StorageLayout::kSlicedInstr) &&
              arm(LayoutMode::kAuto) == backends::kNumStorageLayouts);
static_assert(arm(PrecisionMode::kFp32) == arm(backends::Precision::kFp32) &&
              arm(PrecisionMode::kBf16s) == arm(backends::Precision::kBf16s) &&
              arm(PrecisionMode::kAuto) == backends::kNumPrecisions);

/// Calls `f(axis, mode)` on each mode field of `config`, in
/// backends::tuning_axes() order.
template <typename Config, typename F>
void for_each_mode(Config& config, F&& f) {
  f(backends::kScatterAxis, config.scatter);
  f(backends::kLayoutAxis, config.storage_layout);
  f(backends::kPrecisionAxis, config.precision);
}

/// Applies `edit(id, cfg)` to every kernel's table entry.
template <typename Edit>
void edit_table(backends::TuningTable& table, Edit&& edit) {
  for (backends::KernelId id : backends::all_kernels()) {
    backends::KernelConfig cfg = table.get(id);
    edit(id, cfg);
    table.set(id, cfg);
  }
}

/// The mode token of each axis: its pinned arm's token, or "auto".
std::string mode_token(const backends::AxisPins& modes, std::size_t axis) {
  return modes[axis] ? backends::tuning_axes()[axis].token(*modes[axis])
                     : "auto";
}

}  // namespace

backends::AxisPins axis_modes(const SolverRunConfig& config) {
  backends::AxisPins modes;
  for_each_mode(config, [&](std::size_t axis, auto mode) {
    if (mode != decltype(mode)::kAuto) modes[axis] = static_cast<int>(mode);
  });
  return modes;
}

bool set_axis_mode(SolverRunConfig& config, std::size_t axis,
                   const std::string& token) {
  const backends::TuningAxis& row = backends::tuning_axes()[axis];
  // kAuto follows the last arm (the static_asserts above).
  const std::optional<int> value =
      token == "auto" ? std::optional<int>(row.num_arms()) : row.parse(token);
  if (!value) return false;
  for_each_mode(config, [&](std::size_t a, auto& mode) {
    if (a == axis) mode = static_cast<std::decay_t<decltype(mode)>>(*value);
  });
  return true;
}

void apply_axis_policy(const SolverRunConfig& config,
                       const matrix::GeneratorConfig& gen_cfg,
                       backends::TuningTable& table,
                       tuning::AutotuneOptions& search) {
  using backends::KernelConfig;
  using backends::KernelId;
  const bool measured =
      config.autotune.enabled &&
      backends::honors_kernel_config(config.lsqr.aprod.backend);
  // The no-measurement arm of each `auto` axis asks the cost model's
  // crossover per kernel: contention vs bandwidth (scatter), overfetch
  // vs padding (layout), bandwidth vs refinement (precision). A100 is
  // the representative device (mid-pack among the paper's five
  // platforms); the *sign* of a crossover, not its absolute times, is
  // what this decides.
  const perfmodel::ProblemShape shape =
      perfmodel::ProblemShape::from_config(gen_cfg);
  const perfmodel::KernelCostModel model(
      perfmodel::gpu_spec(perfmodel::Platform::kA100));
  const AprodOptions& aprod = config.lsqr.aprod;

  // A pinned mode is forced into every kernel that carries the axis and
  // fixes the search's arm; `auto` leaves the axis open to the search.
  const backends::AxisPins modes = axis_modes(config);
  for (std::size_t a = 0; a < backends::kNumAxes; ++a) {
    if (!modes[a]) continue;
    const backends::TuningAxis& axis = backends::tuning_axes()[a];
    edit_table(table, [&](KernelId id, KernelConfig& cfg) {
      if (axis.applies_to(id)) axis.set(cfg, *modes[a]);
    });
  }
  search.set_pins(modes);
  if (measured) return;
  // Layout resolves before precision: the precision crossover is priced
  // on the kernel's layout.
  if (config.scatter == ScatterMode::kAuto)
    edit_table(table, [&](KernelId id, KernelConfig& cfg) {
      if (backends::kernel_uses_atomics(id))
        cfg.strategy = model.preferred_strategy(id, shape, cfg,
                                                aprod.atomic_mode,
                                                aprod.coherence);
    });
  if (config.storage_layout == LayoutMode::kAuto)
    edit_table(table, [&](KernelId id, KernelConfig& cfg) {
      cfg.layout = model.preferred_layout(id, shape);
    });
  if (config.precision == PrecisionMode::kAuto)
    edit_table(table, [&](KernelId id, KernelConfig& cfg) {
      cfg.precision = model.preferred_precision(id, shape, cfg.layout);
    });
}

namespace {

/// Resolves the launch shapes the solve will run with: a complete cache
/// entry for this (backend, shape bucket) skips the search outright;
/// otherwise a warm-up search over `search`'s axes runs on a scoped
/// device (its residency is released before the real solve allocates),
/// and fresh winners are sealed back to the cache file.
void run_autotune(const SolverRunConfig& config,
                  const matrix::GeneratorConfig& gen_cfg,
                  const tuning::AutotuneOptions& search,
                  const matrix::SystemMatrix& A, LsqrOptions& lsqr,
                  SolverRunReport& report) {
  report.autotune_enabled = true;
  const backends::BackendKind backend = lsqr.aprod.backend;
  const tuning::ShapeBucket bucket =
      tuning::bucket_for(A.n_rows(), A.n_cols());

  tuning::TuningCache cache;
  auto& metrics = obs::MetricsRegistry::global();
  if (!config.autotune.cache_path.empty() &&
      cache.load(config.autotune.cache_path) &&
      cache.complete_for(backend, bucket)) {
    report.kernels_tuned = cache.apply(backend, bucket, lsqr.aprod.tuning);
    report.autotune_cache_hit = true;
    // A cached winner may record another arm of an axis (sealed by an
    // earlier auto run); a pinned mode overrides it — pinning is a
    // correctness/reproducibility request, not a speed hint.
    tuning::AutotuneOptions axes = search;
    apply_axis_policy(config, gen_cfg, lsqr.aprod.tuning, axes);
    if (metrics.enabled()) metrics.counter("tuning.cache_hits").add(1);
    return;
  }
  if (metrics.enabled()) metrics.counter("tuning.cache_misses").add(1);
  if (!backends::honors_kernel_config(backend)) return;

  tuning::Autotuner tuner(backend, search);
  {
    backends::DeviceContext device(lsqr.device_capacity, "autotune");
    AprodOptions opts = lsqr.aprod;
    opts.autotuner = &tuner;
    Aprod aprod(A, device, opts);
    const AutotuneWarmupReport warm =
        autotune_warmup(aprod, tuner, config.autotune.max_warmup_rounds);
    lsqr.aprod.tuning = aprod.tuning();
    report.kernels_tuned = warm.kernels_tuned;
    report.tuning_trials = warm.trials;
  }
  if (!config.autotune.cache_path.empty()) {
    // Seal the *full* table for this key — including kernels the search
    // left at their prior shape — so the next run's complete_for() check
    // can skip the search without re-deriving anything.
    for (backends::KernelId id : backends::all_kernels())
      cache.put(backend, bucket, id, lsqr.aprod.tuning.get(id));
    cache.save(config.autotune.cache_path);
  }
}

/// Post-solve mixed-precision refinement: when the resolved table stores
/// any coefficient plane reduced, the solve converged to the *perturbed*
/// system's solution; correct it against the FP64 residual until the
/// §V-C tolerance (core/refinement.hpp). A stalled refinement — the
/// correction budget ran out above tolerance — falls back to a complete
/// FP64 re-solve: reduced precision may cost its speedup, never accuracy.
void run_refinement(const SolverRunConfig& config,
                    const matrix::SystemMatrix& A, LsqrOptions& lsqr,
                    SolverRunReport& report) {
  if (!lsqr.aprod.tuning.stores_reduced_precision()) return;
  obs::ProgressBoard::global().set_phase(obs::ProgressBoard::thread_rank(),
                                         "refine");
  report.refinement_ran = true;
  report.refinement = refine_corrections(A, A.known_terms(),
                                         report.result.x, lsqr,
                                         config.refine);
  if (report.refinement.converged) return;

  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) reg.counter("refine.fallbacks").add(1);
  obs::flight_event("state", "solver.precision_fallback",
                    "refinement stalled; full fp64 re-solve");
  report.precision_fell_back = true;
  edit_table(lsqr.aprod.tuning,
             [](backends::KernelId, backends::KernelConfig& cfg) {
               cfg.precision = backends::Precision::kFp64;
             });
  report.tuning_used = lsqr.aprod.tuning;
  LsqrOptions fp64 = lsqr;
  fp64.aprod.autotuner = nullptr;
  report.result = lsqr_solve(A, fp64);
}

/// Post-solve observability digest: Pennycook P across the kernels that
/// recorded production timing samples, plus the armed snapshot path.
/// Per-kernel efficiency e_i = (cost-model predicted launch time) /
/// (measured p50), the per-kernel analog of the paper's application
/// efficiency; normalized by the best kernel so e_i in (0, 1] and P is
/// the harmonic mean of Eq. 1. Rows are read from a snapshot — never via
/// registry lookups, which would create empty series as a side effect.
void finish_observability(const matrix::GeneratorConfig& gen_cfg,
                          const LsqrOptions& lsqr, SolverRunReport& report) {
  report.metrics_snapshot_path = obs::global_snapshot_path();
  report.trace_dropped_events =
      obs::TraceRecorder::global().dropped_events();
  auto& reg = obs::MetricsRegistry::global();
  if (!reg.enabled()) return;
  const std::vector<obs::MetricRow> rows = reg.snapshot();
  const perfmodel::ProblemShape shape =
      perfmodel::ProblemShape::from_config(gen_cfg);
  const perfmodel::GpuSpec spec =
      perfmodel::gpu_spec(perfmodel::Platform::kA100);
  const perfmodel::KernelCostModel model(spec);
  // Roofline placement against the same representative spec the cost
  // model prices crossovers with (GFLOP/s = TFLOP/s * 1000); gauges are
  // published back so exports/bundles carry the placement.
  report.roofline_machine = metrics::RooflineMachine{
      spec.name, spec.peak_bw_gbs, spec.fp64_tflops * 1000.0,
      spec.spmv_bw_efficiency};
  report.roofline = metrics::roofline_points(rows, report.roofline_machine);
  metrics::publish_roofline_gauges(report.roofline);
  std::vector<double> eff;
  for (backends::KernelId id : backends::all_kernels()) {
    const std::string kname = backends::to_string(id);
    // Several series can exist per kernel (trial shapes, failover
    // backends); the one with the most samples is the production config.
    double measured = 0;
    std::uint64_t best_count = 0;
    for (const obs::MetricRow& row : rows) {
      obs::KernelSeriesName series;
      if (!obs::parse_kernel_series(row.name, series)) continue;
      if (series.kernel != kname || series.field != "time_seconds") continue;
      if (row.count > best_count) {
        best_count = row.count;
        measured = row.p50;
      }
    }
    if (best_count == 0 || measured <= 0) continue;
    const double predicted =
        model.kernel_seconds(id, shape, report.tuning_used.get(id),
                             lsqr.aprod.atomic_mode, lsqr.aprod.coherence);
    if (predicted <= 0) continue;
    eff.push_back(predicted / measured);
  }
  if (eff.empty()) return;
  const double best = *std::max_element(eff.begin(), eff.end());
  for (double& e : eff) e /= best;
  report.pennycook_p = metrics::pennycook_p(eff);
  report.pennycook_kernels = static_cast<int>(eff.size());
  reg.gauge("metrics.pennycook").set(report.pennycook_p);
}

SolverRunReport run_solver_impl(const SolverRunConfig& config) {
  util::Stopwatch watch;

  // Live progress: one rank-attributed row for the whole run (rank -1
  // single-process; the dist rank bodies install a ThreadRankScope).
  // Phase transitions below feed the sampler's progress/ETA line; the
  // row is dropped however the run ends.
  const int prank = obs::ProgressBoard::thread_rank();
  auto& board = obs::ProgressBoard::global();
  struct BoardEnd {
    int rank;
    ~BoardEnd() { obs::ProgressBoard::global().end(rank); }
  } board_end{prank};
  board.begin(prank, config.lsqr.max_iterations, "generate");

  matrix::GeneratorConfig gen_cfg =
      config.generator.has_value()
          ? *config.generator
          : matrix::config_for_footprint(config.footprint_bytes, config.seed);

  matrix::GeneratedSystem generated = matrix::generate_system(gen_cfg);
  SolverRunReport report;
  report.generation_seconds = watch.elapsed_s();
  report.layout = generated.A.layout();
  report.n_obs = generated.A.n_obs();
  report.n_constraints = generated.A.n_constraints();
  report.system_bytes = generated.A.footprint_bytes();

  LsqrOptions lsqr = config.lsqr;

  // Config fingerprint for any postmortem bundle this run flushes.
  obs::set_postmortem_context("backend",
                              backends::to_string(lsqr.aprod.backend));
  obs::set_postmortem_context("seed", std::to_string(config.seed));
  const backends::AxisPins modes = axis_modes(config);
  for (std::size_t a = 0; a < backends::kNumAxes; ++a)
    obs::set_postmortem_context(backends::tuning_axes()[a].name,
                                mode_token(modes, a));
  obs::set_postmortem_context("n_obs", std::to_string(report.n_obs));
  obs::set_postmortem_context("n_unknowns",
                              std::to_string(report.layout.n_unknowns()));
  obs::set_postmortem_context(
      "max_iterations", std::to_string(config.lsqr.max_iterations));
  obs::flight_event("state", "solver.generated",
                    std::to_string(report.n_obs) + " obs, " +
                        std::to_string(report.layout.n_unknowns()) +
                        " unknowns");
  tuning::AutotuneOptions search = config.autotune.search;
  apply_axis_policy(config, gen_cfg, lsqr.aprod.tuning, search);
  if (config.autotune.enabled) {
    board.set_phase(prank, "autotune");
    run_autotune(config, gen_cfg, search, generated.A, lsqr, report);
    obs::flight_event("state", "solver.autotuned",
                      report.autotune_cache_hit
                          ? "cache hit"
                          : std::to_string(report.tuning_trials) + " trials");
  }
  report.tuning_used = lsqr.aprod.tuning;
  {
    // Tuning fingerprint: the resolved (shape, strategy, layout,
    // precision) per kernel — the first question a postmortem asks.
    std::ostringstream fp;
    bool first = true;
    for (backends::KernelId id : backends::all_kernels()) {
      const backends::KernelConfig cfg = lsqr.aprod.tuning.get(id);
      if (!first) fp << ' ';
      first = false;
      fp << backends::to_string(id) << '=' << cfg.blocks << 'x' << cfg.threads;
      for (const backends::TuningAxis& axis : backends::tuning_axes())
        fp << '/' << axis.token(axis.get(cfg));
    }
    obs::set_postmortem_context("tuning", fp.str());
  }

  board.set_phase(prank, "solve");
  watch.reset();
  resilience::CheckpointManager manager(config.checkpoint);
  {
    // Scoped: the engine's device residency is released before the
    // refinement solves allocate theirs.
    LsqrEngine engine(generated.A, lsqr);
    if (manager.enabled())
      report.resumed_from_iteration = resume_newest(engine, manager);
    while (engine.step()) {
      if (manager.due(engine.iteration())) {
        std::ostringstream payload(std::ios::binary);
        engine.checkpoint(payload);
        manager.write(engine.iteration(), payload.view());
      }
    }
    report.result = engine.result();
  }
  report.result.resumed_from_iteration = report.resumed_from_iteration;
  report.checkpoints_written = manager.written();
  run_refinement(config, generated.A, lsqr, report);
  report.solve_seconds = watch.elapsed_s();
  finish_observability(gen_cfg, lsqr, report);
  return report;
}

}  // namespace

SolverRunReport run_solver(const SolverRunConfig& config) {
  // Satellite fix (ISSUE 10): the exit-time snapshot used to be sealed
  // only on the normal path — this guard seals it while *unwinding*, so
  // an SdcError/failover-exhaustion abort still leaves the armed
  // snapshot on disk (the postmortem bundle links against it).
  struct UnwindSeal {
    ~UnwindSeal() {
      if (std::uncaught_exceptions() > 0) obs::flush_global_snapshot();
    }
  } unwind_seal;
  try {
    SolverRunReport report = run_solver_impl(config);
    obs::flight_event("state", "solver.done",
                      std::to_string(report.result.iterations) +
                          " iterations, stop: " +
                          to_string(report.result.istop));
    return report;
  } catch (const resilience::SdcError& e) {
    obs::flight_event("fault", "solver.sdc_unrepaired", e.what());
    obs::flush_postmortem({"sdc-unrepaired", e.what(),
                           obs::ProgressBoard::thread_rank(), 1});
    throw;
  } catch (const std::exception& e) {
    obs::flight_event("fault", "solver.exception", e.what());
    obs::flush_postmortem({"exception", e.what(),
                           obs::ProgressBoard::thread_rank(), 1});
    throw;
  }
}

std::string SolverRunReport::summary() const {
  std::ostringstream os;
  os << "system: " << n_obs << " observations + " << n_constraints
     << " constraints x " << layout.n_unknowns() << " unknowns ("
     << layout.n_stars() << " stars), footprint "
     << util::format_bytes(system_bytes) << '\n';
  os << "solve:  " << result.iterations << " iterations, stop: \""
     << to_string(result.istop) << "\"\n";
  if (autotune_enabled) {
    os << "tuning: ";
    if (autotune_cache_hit)
      os << "loaded " << kernels_tuned
         << " kernel shape(s) from cache (search skipped)";
    else if (tuning_trials > 0)
      os << "autotuned " << kernels_tuned << " kernel(s) in "
         << tuning_trials << " trial launch(es)";
    else
      os << "backend ignores launch shapes; nothing to tune";
    os << '\n';
  }
  // One line per axis. An axis every kernel carries collapses to one
  // token when the kernels agree (the common case: a pinned mode); an
  // `auto` mode can split it per kernel.
  for (const backends::TuningAxis& axis : backends::tuning_axes()) {
    const auto arm_of = [&](backends::KernelId id) {
      return axis.get(tuning_used.get(id));
    };
    bool uniform = !axis.atomic_only;
    for (backends::KernelId id : backends::all_kernels())
      uniform &= arm_of(id) == arm_of(backends::KernelId::kAprod1Astro);
    os << axis.name << ':';
    if (uniform)
      os << ' ' << axis.token(arm_of(backends::KernelId::kAprod1Astro));
    else
      for (backends::KernelId id : backends::all_kernels())
        if (axis.applies_to(id))
          os << ' ' << backends::to_string(id) << '='
             << axis.token(arm_of(id));
    os << '\n';
  }
  if (refinement_ran) {
    os << "refine: " << refinement.corrections << " correction(s), "
       << (refinement.converged ? "converged" : "stalled")
       << "; true |r|=" << refinement.true_rnorm
       << " |A'r|=" << refinement.true_arnorm;
    if (precision_fell_back)
      os << "; fell back to fp64 (full re-solve)";
    os << '\n';
  }
  os << "        mean iteration time "
     << util::format_seconds(result.mean_iteration_s) << ", total solve "
     << util::format_seconds(solve_seconds) << '\n';
  os << "        estimates: |A|=" << result.anorm
     << " cond(A)=" << result.acond << " |r|=" << result.rnorm
     << " |A'r|=" << result.arnorm << " |x|=" << result.xnorm << '\n';
  if (pennycook_kernels > 0)
    os << "perf:   Pennycook P=" << pennycook_p << " over "
       << pennycook_kernels
       << " kernel(s) (model-predicted / measured p50, best-normalized)\n";
  if (!roofline.empty())
    os << metrics::roofline_table(roofline, roofline_machine);
  if (!metrics_snapshot_path.empty())
    os << "        metrics snapshot: " << metrics_snapshot_path << '\n';
  if (trace_dropped_events > 0)
    os << "        trace: " << trace_dropped_events
       << " event(s) dropped by the capacity cap (sliding window)\n";
  if (resumed_from_iteration >= 0 || checkpoints_written > 0 ||
      result.failovers > 0) {
    os << "resilience:";
    if (resumed_from_iteration >= 0)
      os << " resumed from iteration " << resumed_from_iteration << ",";
    if (checkpoints_written > 0)
      os << " wrote " << checkpoints_written << " checkpoint(s),";
    os << " finished on backend "
       << backends::to_string(result.final_backend);
    if (result.failovers > 0)
      os << " after " << result.failovers << " failover(s)";
    os << '\n';
  }
  if (result.health.mode != resilience::HealthMode::kOff) {
    os << "health: mode " << resilience::to_string(result.health.mode)
       << ", " << result.health.checks << " deep check(s), "
       << result.health.detections << " detection(s), "
       << result.health.repairs << " repair(s)";
    if (result.health.first_detection_iteration >= 0)
      os << "; first detection at iteration "
         << result.health.first_detection_iteration;
    os << '\n';
    if (!result.health.last_diagnosis.empty())
      os << "        last diagnosis: " << result.health.last_diagnosis
         << '\n';
  }
  return os.str();
}

}  // namespace gaia::core
