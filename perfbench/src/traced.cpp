#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "core/aprod.hpp"
#include "core/autotune_driver.hpp"
#include "core/kernel_catalog.hpp"
#include "core/lsqr_engine.hpp"
#include "core/refinement.hpp"
#include "dist/partition.hpp"
#include "resilience/checkpoint.hpp"
#include "tuning/kernel_registry.hpp"

namespace perfbench {

namespace core = gaia::core;
namespace backends = gaia::backends;
namespace matrix = gaia::matrix;

namespace {

/// In-memory span log of one traced replay. Spans nest (the replay is
/// single-threaded), carry their parent, and are written out once the
/// run is over.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;
  };

  int open(std::string name) {
    spans_.push_back({std::move(name), now_s(), 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = now_s();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// A span's duration minus the part of it its children cover.
  [[nodiscard]] double self_s(int id) const {
    std::vector<std::pair<double, double>> kids;
    for (const Span& s : spans_)
      if (s.parent == id) kids.emplace_back(s.start_s, s.end_s);
    std::sort(kids.begin(), kids.end());
    double covered = 0, reach = -1;
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      if (b > a) covered += b - a;
      reach = std::max(reach, b);
    }
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return (s.end_s - s.start_s) - covered;
  }
  [[nodiscard]] double duration_s(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end_s - s.start_s;
  }
  /// Durations of every span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(s.end_s - s.start_s);
    return out;
  }

  void write(const std::string& path, const std::string& workload,
             const std::string& run_id) const {
    std::ofstream os(path);
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonObject o;
      o.integer("id", static_cast<std::int64_t>(i))
          .str("name", s.name)
          .num("start_s", s.start_s)
          .num("end_s", s.end_s)
          .integer("parent", s.parent)
          .num("self_s", self_s(static_cast<int>(i)))
          .str("workload", workload)
          .str("run_id", run_id);
      os << o.text() << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]\n";
  }

 private:
  double now_s() const { return seconds_between(epoch_, Clock::now()); }
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

class Scoped {
 public:
  Scoped(SpanRecorder& rec, std::string name)
      : rec_(rec), id_(rec.open(std::move(name))) {}
  ~Scoped() { rec_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

constexpr double kMiB = 1024.0 * 1024.0;

/// Everything the replay of one workload produces.
struct Replay {
  matrix::GeneratedSystem gen;
  core::LsqrOptions lsqr;  // resolved: the table the solve ran with
  std::vector<real> x;
  std::int64_t iterations = 0;
  core::LsqrStop istop = core::LsqrStop::kIterationLimit;
  bool deterministic = false;
  JsonObject metrics;
};

// -- the run_solver sequence, one public call per span ------------------

void force(backends::TuningTable& table, auto&& edit) {
  for (backends::KernelId id : backends::all_kernels()) {
    backends::KernelConfig cfg = table.get(id);
    edit(id, cfg);
    table.set(id, cfg);
  }
}

/// run_solver's policy resolution for the pinned modes the workloads
/// use (the auto modes consult the cost model and are not replayed).
void resolve_pinned_modes(const core::SolverRunConfig& cfg,
                          backends::TuningTable& table) {
  GAIA_CHECK(cfg.scatter != core::ScatterMode::kAuto &&
                 cfg.storage_layout != core::LayoutMode::kAuto &&
                 cfg.precision != core::PrecisionMode::kAuto,
             "the replay covers pinned modes only");
  if (cfg.scatter == core::ScatterMode::kPrivatized)
    force(table, [](backends::KernelId id, backends::KernelConfig& k) {
      if (backends::kernel_uses_atomics(id))
        k.strategy = backends::ScatterStrategy::kPrivatized;
    });
  if (cfg.storage_layout != core::LayoutMode::kSeed) {
    const auto layout = cfg.storage_layout == core::LayoutMode::kSoa
                            ? backends::StorageLayout::kSoaTiled
                            : backends::StorageLayout::kSlicedInstr;
    force(table, [&](backends::KernelId, backends::KernelConfig& k) {
      k.layout = layout;
    });
  }
  if (cfg.precision != core::PrecisionMode::kFp64) {
    const auto p = cfg.precision == core::PrecisionMode::kFp32
                       ? backends::Precision::kFp32
                       : backends::Precision::kBf16s;
    force(table, [&](backends::KernelId, backends::KernelConfig& k) {
      k.precision = p;
    });
  }
}

bool has_reduced_precision(const backends::TuningTable& table) {
  for (backends::KernelId id : backends::all_kernels())
    if (table.get(id).precision != backends::Precision::kFp64) return true;
  return false;
}

/// True when every scatter is privatized, no autotune varies the launch
/// shapes, and the backend runs a fixed worker count: x is then
/// bit-identical between the untraced run and the replay.
bool is_deterministic(const backends::TuningTable& table,
                      backends::BackendKind backend, bool autotune) {
  if (autotune || backend == backends::BackendKind::kGpuSim) return false;
  for (backends::KernelId id : backends::all_kernels())
    if (backends::kernel_uses_atomics(id) &&
        table.get(id).strategy != backends::ScatterStrategy::kPrivatized)
      return false;
  return true;
}

void replay_run_solver(const Workload& w, SpanRecorder& rec, Replay& r) {
  const core::SolverRunConfig& cfg = w.config;
  {
    Scoped s(rec, "matrix.generate");
    r.gen = matrix::generate_system(*cfg.generator);
  }
  const matrix::SystemMatrix& A = r.gen.A;
  r.lsqr = cfg.lsqr;
  std::uint64_t trials = 0;
  {
    Scoped s(rec, "tuning");
    resolve_pinned_modes(cfg, r.lsqr.aprod.tuning);
    const backends::BackendKind backend = r.lsqr.aprod.backend;
    if (cfg.autotune.enabled && backends::honors_kernel_config(backend)) {
      GAIA_CHECK(cfg.autotune.cache_path.empty(),
                 "the replay runs the uncached search only");
      gaia::tuning::AutotuneOptions search = cfg.autotune.search;
      search.scatter = r.lsqr.aprod.tuning.get(backends::KernelId::kAprod2Att)
                           .strategy;
      search.layout = r.lsqr.aprod.tuning.get(backends::KernelId::kAprod1Astro)
                          .layout;
      search.precision =
          r.lsqr.aprod.tuning.get(backends::KernelId::kAprod1Astro).precision;
      gaia::tuning::Autotuner tuner(backend, search);
      backends::DeviceContext device(r.lsqr.device_capacity, "autotune");
      core::AprodOptions opts = r.lsqr.aprod;
      opts.autotuner = &tuner;
      std::unique_ptr<core::Aprod> aprod;
      {
        Scoped c(rec, "aprod.construct");
        aprod = std::make_unique<core::Aprod>(A, device, opts);
      }
      {
        Scoped c(rec, "tuning.search");
        trials = core::autotune_warmup(*aprod, tuner,
                                       cfg.autotune.max_warmup_rounds)
                     .trials;
      }
      r.lsqr.aprod.tuning = aprod->tuning();
    }
  }
  r.deterministic = is_deterministic(r.lsqr.aprod.tuning,
                                     r.lsqr.aprod.backend,
                                     cfg.autotune.enabled);

  std::unique_ptr<core::LsqrEngine> engine;
  const auto teardown = [&] {
    Scoped s(rec, "lsqr.teardown");
    engine.reset();
  };
  double ckpt_bytes = 0;
  bool checkpointing = false;
  {
    Scoped s(rec, "lsqr");
    gaia::resilience::CheckpointManager manager(cfg.checkpoint);
    checkpointing = manager.enabled();
    {
      Scoped c(rec, "lsqr.engine_setup");
      engine = std::make_unique<core::LsqrEngine>(A, r.lsqr);
    }
    // run_solver auto-resumes from any checkpoint in the directory; the
    // benchmark hands every run a fresh one, so there must be none.
    GAIA_CHECK(!manager.enabled() || manager.list().empty(),
               "checkpoint directory is not fresh");
    while (true) {
      bool more = false;
      {
        Scoped c(rec, "lsqr.step");
        more = engine->step();
      }
      if (!more) break;
      if (manager.due(engine->iteration())) {
        Scoped c(rec, "ckpt.write");
        std::ostringstream payload(std::ios::binary);
        engine->checkpoint(payload);
        manager.write(engine->iteration(), payload.view());
        ckpt_bytes = static_cast<double>(payload.view().size());
      }
    }
    Scoped c(rec, "lsqr.result");
    core::LsqrResult res = engine->result();
    r.x = std::move(res.x);
    r.iterations = res.iterations;
    r.istop = res.istop;
  }
  // Without checkpoints run_solver goes through lsqr_solve, whose engine
  // is gone before refinement starts; with them it keeps the engine
  // until it returns.
  if (!checkpointing) teardown();
  core::RefinementReport refine;
  {
    Scoped s(rec, "refine");
    if (has_reduced_precision(r.lsqr.aprod.tuning)) {
      refine = core::refine_corrections(A, A.known_terms(), r.x, r.lsqr,
                                        cfg.refine);
      if (!refine.converged) {
        core::LsqrOptions fp64 = r.lsqr;
        force(fp64.aprod.tuning, [](backends::KernelId,
                                    backends::KernelConfig& k) {
          k.precision = backends::Precision::kFp64;
        });
        fp64.aprod.autotuner = nullptr;
        core::LsqrResult res = core::lsqr_solve(A, fp64);
        r.x = std::move(res.x);
      }
    }
  }
  if (engine) teardown();

  const auto ckpt = rec.durations("ckpt.write");
  r.metrics.num("tuning.trials", static_cast<double>(trials))
      .num("lsqr.engine_setup_s", rec.durations("lsqr.engine_setup").at(0))
      .num("lsqr.step_ms_p50", 1e3 * median(rec.durations("lsqr.step")))
      .num("ckpt.write_ms_p50", 1e3 * median(ckpt))
      .num("ckpt.mib", ckpt_bytes / kMiB)
      .num("ckpt.count", static_cast<double>(ckpt.size()))
      .num("refine.corrections", refine.corrections)
      .num("dist.comm_s", 0)
      .num("dist.comm_wait_s", 0)
      .num("dist.comm_exposure", 0)
      .num("dist.rank_rows_imbalance", 0);
}

void replay_dist(const Workload& w, SpanRecorder& rec, Replay& r) {
  {
    Scoped s(rec, "matrix.generate");
    r.gen = matrix::generate_system(*w.config.generator);
  }
  r.lsqr = w.dist.lsqr;
  gaia::dist::DistLsqrResult res;
  std::optional<double> setup_s;
  {
    Scoped s(rec, "dist.solve");
    FirstIterationWatch watch;
    const Clock::time_point start = Clock::now();
    res = gaia::dist::dist_lsqr_solve(r.gen.A, w.dist);
    watch.stop();
    setup_s = watch.setup_seconds(start, res.iteration_seconds);
  }
  r.x = std::move(res.x);
  r.iterations = res.iterations;
  r.istop = res.istop;
  r.deterministic = is_deterministic(r.lsqr.aprod.tuning,
                                     r.lsqr.aprod.backend, w.dist.autotune);
  double max_rows = 0;
  for (int k = 0; k < res.partition.n_ranks; ++k)
    max_rows = std::max(max_rows,
                        static_cast<double>(res.partition.rows_of(k)));
  const double mean_rows = static_cast<double>(res.partition.row_begin.back()) /
                           std::max(1, res.partition.n_ranks);
  // Program-reported: dist_lsqr_solve is one public call, so the
  // per-iteration and comm figures come from its result.
  r.metrics.num("tuning.trials", 0)
      .num("lsqr.engine_setup_s", setup_s.value_or(0))
      .num("lsqr.step_ms_p50", 1e3 * median(res.iteration_seconds))
      .num("ckpt.write_ms_p50", 0)
      .num("ckpt.mib", 0)
      .num("ckpt.count", static_cast<double>(res.checkpoints_written))
      .num("refine.corrections", 0)
      .num("dist.comm_s", res.comm_seconds_max)
      .num("dist.comm_wait_s", res.comm_wait_seconds_max)
      .num("dist.comm_exposure", res.comm_exposure_fraction_max)
      .num("dist.rank_rows_imbalance", max_rows / mean_rows);
}

// -- micro-phases, after the replay and outside its span sum ------------

template <typename F>
double time_s(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return seconds_between(t0, Clock::now());
}

/// Builds one Aprod with the table the solve ran with and times its
/// construction, layout and precision builds, the two applies, every
/// kernel launched through the registry, and one FP64 true residual.
/// For the dist workload the Aprod covers rank 0's slice, which is what
/// each rank multiplies.
void micro_phases(const Workload& w, Replay& r) {
  const matrix::SystemMatrix* A = &r.gen.A;
  matrix::SystemMatrix slice;
  if (w.path == Path::kDist) {
    const auto part = gaia::dist::partition_by_stars(r.gen.A, w.dist.n_ranks);
    slice = gaia::dist::extract_rank_slice(r.gen.A, part, 0);
    A = &slice;
  }
  core::AprodOptions opts = r.lsqr.aprod;
  opts.autotuner = nullptr;
  const backends::KernelConfig probe_cfg =
      opts.tuning.get(backends::KernelId::kAprod1Astro);

  backends::DeviceContext device(r.lsqr.device_capacity, "micro");
  std::unique_ptr<core::Aprod> aprod;
  const double upload_s =
      time_s([&] { aprod = std::make_unique<core::Aprod>(*A, device, opts); });
  const double layout_s =
      time_s([&] { aprod->ensure_layout(probe_cfg.layout); });
  const double precision_s =
      time_s([&] { aprod->ensure_precision(probe_cfg.precision); });

  // Inputs stay fixed and outputs only accumulate, so repeated products
  // grow linearly and never reach overflow or denormals.
  const std::vector<real> x(static_cast<std::size_t>(aprod->n_cols()), 1e-3);
  const std::vector<real> y(static_cast<std::size_t>(aprod->n_rows()), 1e-3);
  std::vector<real> x_out(x.size()), y_out(y.size());
  for (int i = 0; i < 2; ++i) {
    aprod->apply1(x, y_out);
    aprod->apply2(y, x_out);
  }
  const std::uint64_t misses0 = aprod->scratch_arena().misses();
  constexpr int kApplyReps = 15;
  std::vector<double> a1, a2;
  for (int i = 0; i < kApplyReps; ++i) {
    a1.push_back(time_s([&] { aprod->apply1(x, y_out); }));
    a2.push_back(time_s([&] { aprod->apply2(y, x_out); }));
  }
  const double misses =
      static_cast<double>(aprod->scratch_arena().misses() - misses0);

  constexpr int kKernelReps = 9;
  const auto& registry = gaia::tuning::KernelRegistry::global();
  double bytes1 = 0, bytes2 = 0;
  for (backends::KernelId id : backends::all_kernels()) {
    const backends::KernelConfig kcfg = aprod->tuning().get(id);
    const bool gather = static_cast<int>(id) < 4;
    gaia::tuning::LaunchArgs args;
    args.view = &aprod->view();
    args.in = gather ? x.data() : y.data();
    args.out = gather ? y_out.data() : x_out.data();
    args.config = kcfg;
    args.atomic_mode = opts.atomic_mode;
    args.arena = &aprod->scratch_arena();
    std::vector<double> t;
    for (int i = 0; i < kKernelReps; ++i)
      t.push_back(time_s(
          [&] { registry.launch(id, aprod->active_backend(), args); }));
    const double bytes = static_cast<double>(core::kernel_traffic_bytes(
        aprod->view(), id, kcfg.layout, kcfg.precision));
    (gather ? bytes1 : bytes2) += bytes;
    const std::string k = "kernel." + backends::to_string(id);
    r.metrics.num(k + ".ms_p50", 1e3 * median(t))
        .num(k + ".computed_bytes", bytes);
  }

  // The FP64 true residual refinement and the gate trust: kernels
  // pinned to fp64 planes, on the full system.
  double true_arnorm = 0, true_residual_s = 0;
  if (w.path == Path::kRunSolver) {
    backends::TuningTable fp64 = aprod->tuning();
    force(fp64, [](backends::KernelId, backends::KernelConfig& k) {
      k.precision = backends::Precision::kFp64;
    });
    aprod->set_tuning(fp64);
    std::vector<real> res(static_cast<std::size_t>(aprod->n_rows()));
    true_residual_s = time_s([&] {
      true_arnorm = core::true_residual(*aprod, A->known_terms(), r.x, res)
                        .arnorm;
    });
  } else {
    aprod.reset();
    backends::DeviceContext full_device(r.lsqr.device_capacity, "residual");
    core::AprodOptions full = opts;
    core::Aprod whole(r.gen.A, full_device, full);
    std::vector<real> res(static_cast<std::size_t>(whole.n_rows()));
    true_residual_s = time_s([&] {
      true_arnorm =
          core::true_residual(whole, r.gen.A.known_terms(), r.x, res).arnorm;
    });
  }

  r.metrics.num("aprod.upload_s", upload_s)
      .num("matrix.layout_build_s", layout_s)
      .num("matrix.precision_build_s", precision_s)
      .num("aprod.h2d_mib", static_cast<double>(device.h2d_bytes()) / kMiB)
      .num("aprod.apply1_ms_p50", 1e3 * median(a1))
      .num("aprod.apply2_ms_p50", 1e3 * median(a2))
      .num("aprod.apply1_computed_bytes", bytes1)
      .num("aprod.apply2_computed_bytes", bytes2)
      .num("backends.scratch_misses", misses)
      .num("refine.true_residual_ms", 1e3 * true_residual_s)
      .num("validation.true_arnorm", true_arnorm);
}

}  // namespace

int run_traced(const Workload& w, const std::string& run_id,
               const std::string& work_dir) {
  SpanRecorder rec;
  Replay r;
  {
    Scoped root(rec, "run");
    if (w.path == Path::kRunSolver)
      replay_run_solver(w, rec, r);
    else
      replay_dist(w, rec, r);
  }
  const GateVerdict gate = accuracy_gate(r.x, *r.gen.ground_truth);
  micro_phases(w, r);

  // Layer self times by span name; the root's self time is the part of
  // the traced wall no layer span covers.
  std::map<std::string, double> self;
  const auto& spans = rec.spans();
  for (std::size_t i = 1; i < spans.size(); ++i)
    self[spans[i].name] += rec.self_s(static_cast<int>(i));
  JsonObject layers;
  for (const auto& [name, s] : self) layers.num(name, s);
  const double wall = rec.duration_s(0);
  const double unattributed = rec.self_s(0);

  r.metrics.num("matrix.generate_s", rec.durations("matrix.generate").at(0))
      .num("matrix.system_mib",
           static_cast<double>(r.gen.A.footprint_bytes()) / kMiB)
      .num("tuning.search_s", [&] {
        const auto t = rec.durations("tuning");
        return t.empty() ? 0.0 : t[0];
      }())
      .num("lsqr.iterations", static_cast<double>(r.iterations))
      .num("refine.s", [&] {
        const auto t = rec.durations("refine");
        return t.empty() ? 0.0 : t[0];
      }())
      .num("validation.max_err_uas", gate.max_err_uas)
      .num("trace.unattributed_frac", unattributed / wall);
  rec.write(work_dir + "/spans.json", w.name, run_id);

  JsonObject out;
  out.str("mode", "trace")
      .str("workload", w.name)
      .boolean("accepted", gate.accepted &&
                               r.istop != core::LsqrStop::kIterationLimit)
      .str("failure", gate.reason)
      .integer("iterations", r.iterations)
      .num("max_err_uas", gate.max_err_uas)
      .str("x_hash", hash_solution(r.x))
      .boolean("deterministic", r.deterministic)
      .num("traced_wall_s", wall)
      .num("unattributed_s", unattributed)
      .raw("layer_self_s", layers.text())
      .raw("metrics", r.metrics.text());
  std::cout << out.text() << std::endl;
  return 0;
}

}  // namespace perfbench
