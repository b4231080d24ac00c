#include "core/aprod.hpp"

#include "core/kernel_catalog.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "resilience/failover.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/retry.hpp"
#include "tuning/autotuner.hpp"
#include "tuning/kernel_registry.hpp"

namespace gaia::core {

using backends::BackendKind;
using backends::KernelId;

namespace {

/// Span annotations of one kernel launch: backend, launch shape
/// (resolved to the actual grid for the gpusim backend), stream lane,
/// bytes moved, and whether this launch was an autotuner trial.
std::vector<obs::TraceArg> kernel_trace_args(
    BackendKind backend, backends::KernelConfig cfg,
    backends::AtomicMode atomic_mode, const SystemView& view, KernelId id,
    std::int32_t stream, bool trial) {
  if (backend == BackendKind::kGpuSim)
    cfg = backends::GpuSimExec::resolve(cfg);
  std::vector<obs::TraceArg> args;
  args.reserve(8);
  args.emplace_back("backend", backends::to_string(backend));
  args.emplace_back("blocks", static_cast<std::int64_t>(cfg.blocks));
  args.emplace_back("threads", static_cast<std::int64_t>(cfg.threads));
  args.emplace_back("stream", static_cast<std::int64_t>(stream));
  args.emplace_back(
      "bytes", kernel_traffic_bytes(view, id, cfg.layout, cfg.precision));
  if (cfg.layout != backends::StorageLayout::kSeedAos)
    args.emplace_back("layout", backends::to_string(cfg.layout));
  if (cfg.precision != backends::Precision::kFp64)
    args.emplace_back("precision", backends::to_string(cfg.precision));
  if (backends::kernel_uses_atomics(id)) {
    args.emplace_back("strategy", backends::to_string(cfg.strategy));
    if (cfg.strategy == backends::ScatterStrategy::kAtomic)
      args.emplace_back("atomic", backends::to_string(atomic_mode));
  }
  if (trial) args.emplace_back("tuning_trial", std::int64_t{1});
  return args;
}

/// Derived performance counters for one completed (non-trial) launch.
/// The cost shapes come from the kernel catalog, the wall time from the
/// launch stopwatch; the fused scatter reports the summed shape of the
/// three sections it interleaves. Glob launches on a system without a
/// global block are registry no-ops and record nothing.
void record_launch_sample(const SystemView& view, KernelId id, bool fused,
                          BackendKind backend,
                          const backends::KernelConfig& cfg, double seconds) {
  if (!obs::MetricsRegistry::global().enabled()) return;
  const bool glob_noop = !view.has_global;
  obs::KernelSample s;
  s.backend = backends::to_string(backend);
  s.seconds = seconds;
  if (fused) {
    s.kernel = "aprod2_fused";
    s.strategy = "atomic";
    const std::array<KernelId, 3> parts = {
        KernelId::kAprod2Att, KernelId::kAprod2Instr, KernelId::kAprod2Glob};
    for (KernelId part : parts) {
      if (part == KernelId::kAprod2Glob && glob_noop) continue;
      s.bytes += kernel_traffic_bytes(view, part, cfg.layout, cfg.precision);
      s.flops += kernel_flops(view, part);
      s.atomic_updates += kernel_atomic_updates(
          view, part, backends::ScatterStrategy::kAtomic);
    }
  } else {
    if (glob_noop &&
        (id == KernelId::kAprod1Glob || id == KernelId::kAprod2Glob))
      return;
    s.kernel = kernel_region_name(id);
    s.strategy = backends::kernel_uses_atomics(id)
                     ? backends::to_string(cfg.strategy)
                     : "none";
    s.bytes = kernel_traffic_bytes(view, id, cfg.layout, cfg.precision);
    s.flops = kernel_flops(view, id);
    s.atomic_updates = kernel_atomic_updates(view, id, cfg.strategy);
  }
  obs::record_kernel_sample(s);
}

void note_failover(const char* kernel, BackendKind from, BackendKind to) {
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    static obs::Counter& failovers = reg.counter("resilience.failovers");
    failovers.add(1);
  }
  auto& rec = obs::TraceRecorder::current();
  if (rec.enabled()) {
    rec.instant("failover", "resilience", obs::TraceRecorder::kMainTrack,
                {{"kernel", std::string(kernel)},
                 {"from", backends::to_string(from)},
                 {"to", backends::to_string(to)}});
  }
  obs::flight_event("failover", kernel,
                    backends::to_string(from) + " -> " +
                        backends::to_string(to));
}

}  // namespace

Aprod::Aprod(const matrix::SystemMatrix& A, backends::DeviceContext& device,
             AprodOptions options)
    : options_(options),
      active_backend_(options.backend),
      matrix_(&A),
      device_(&device),
      d_values_(device, A.values(), options.coherence),
      d_idx_astro_(device, A.matrix_index_astro(), options.coherence),
      d_idx_att_(device, A.matrix_index_att(), options.coherence),
      d_instr_col_(device, A.instr_col(), options.coherence),
      d_star_row_start_(device, A.star_row_start(), options.coherence) {
  ensure_kernel_catalog();
  // Same construction path as the host view, fed the device-resident
  // copies — scalar fields and layout descriptors can't drift.
  view_ = SystemView::from(
      A, {d_values_.data(), d_idx_astro_.data(), d_idx_att_.data(),
          d_instr_col_.data(), d_star_row_start_.data()});

  if (options_.use_streams) {
    for (auto& s : streams_) s = std::make_unique<backends::Stream>();
  }
}

void Aprod::ensure_layout(backends::StorageLayout layout) {
  if (layout == backends::StorageLayout::kSeedAos) return;
  std::lock_guard<std::mutex> lock(layout_mutex_);
  if (view_.has_layout(layout)) return;
  if (!layouts_)
    layouts_ = std::make_unique<matrix::LayoutedSystem>(*matrix_);
  layouts_->build(layout);
  // Upload the derived arrays once (the "resident before the main loop"
  // contract of paper SIV-a applies to them like the seed arrays) and
  // point the view's descriptors at the device copies.
  const matrix::SoaStreams& soa = layouts_->soa();
  if (soa.built() && !d_soa_astro_) {
    d_soa_astro_ = std::make_unique<backends::DeviceBuffer<real>>(
        *device_, std::span<const real>(soa.astro), options_.coherence);
    d_soa_att_ = std::make_unique<backends::DeviceBuffer<real>>(
        *device_, std::span<const real>(soa.att), options_.coherence);
    d_soa_instr_ = std::make_unique<backends::DeviceBuffer<real>>(
        *device_, std::span<const real>(soa.instr), options_.coherence);
    d_soa_glob_ = std::make_unique<backends::DeviceBuffer<real>>(
        *device_, std::span<const real>(soa.glob), options_.coherence);
    view_.soa_astro = d_soa_astro_->data();
    view_.soa_att = d_soa_att_->data();
    view_.soa_instr = d_soa_instr_->data();
    view_.soa_glob = d_soa_glob_->data();
    view_.soa_padded_rows = soa.padded_rows;
    view_.planes_f64.soa_astro = d_soa_astro_->data();
    view_.planes_f64.soa_att = d_soa_att_->data();
    view_.planes_f64.soa_instr = d_soa_instr_->data();
    view_.planes_f64.soa_glob = d_soa_glob_->data();
  }
  const matrix::SlicedInstr& sliced = layouts_->sliced();
  if (sliced.built() && !d_slice_values_) {
    d_slice_values_ = std::make_unique<backends::DeviceBuffer<real>>(
        *device_, std::span<const real>(sliced.slice_values),
        options_.coherence);
    d_slice_cols_ = std::make_unique<backends::DeviceBuffer<std::int32_t>>(
        *device_, std::span<const std::int32_t>(sliced.slice_cols),
        options_.coherence);
    d_slice_rows_ = std::make_unique<backends::DeviceBuffer<row_index>>(
        *device_, std::span<const row_index>(sliced.slice_rows),
        options_.coherence);
    d_slice_row_slot_ = std::make_unique<backends::DeviceBuffer<row_index>>(
        *device_, std::span<const row_index>(sliced.row_slot),
        options_.coherence);
    view_.slice_values = d_slice_values_->data();
    view_.slice_cols = d_slice_cols_->data();
    view_.slice_rows = d_slice_rows_->data();
    view_.slice_row_slot = d_slice_row_slot_->data();
    view_.n_slices = sliced.n_slices;
    view_.planes_f64.slice_values = d_slice_values_->data();
  }
}

template <typename T>
void Aprod::attach_precision_buffers(const matrix::PrecisionStore<T>& store,
                                     PrecisionBuffers<T>& bufs,
                                     SystemView::CoefPlanes<T>& planes) {
  // Upload each converted stream once; a later call after a new layout
  // build only uploads the streams that appeared since.
  if (store.built() && !bufs.values) {
    bufs.values = std::make_unique<backends::DeviceBuffer<T>>(
        *device_, std::span<const T>(store.values), options_.coherence);
    planes.values = bufs.values->data();
  }
  if (!store.soa_astro.empty() && !bufs.soa_astro) {
    bufs.soa_astro = std::make_unique<backends::DeviceBuffer<T>>(
        *device_, std::span<const T>(store.soa_astro), options_.coherence);
    bufs.soa_att = std::make_unique<backends::DeviceBuffer<T>>(
        *device_, std::span<const T>(store.soa_att), options_.coherence);
    bufs.soa_instr = std::make_unique<backends::DeviceBuffer<T>>(
        *device_, std::span<const T>(store.soa_instr), options_.coherence);
    bufs.soa_glob = std::make_unique<backends::DeviceBuffer<T>>(
        *device_, std::span<const T>(store.soa_glob), options_.coherence);
    planes.soa_astro = bufs.soa_astro->data();
    planes.soa_att = bufs.soa_att->data();
    planes.soa_instr = bufs.soa_instr->data();
    planes.soa_glob = bufs.soa_glob->data();
  }
  if (!store.slice_values.empty() && !bufs.slice_values) {
    bufs.slice_values = std::make_unique<backends::DeviceBuffer<T>>(
        *device_, std::span<const T>(store.slice_values),
        options_.coherence);
    planes.slice_values = bufs.slice_values->data();
  }
}

void Aprod::ensure_precision(backends::Precision precision) {
  if (precision == backends::Precision::kFp64) return;
  std::lock_guard<std::mutex> lock(layout_mutex_);
  if (!layouts_)
    layouts_ = std::make_unique<matrix::LayoutedSystem>(*matrix_);
  // Converts the seed values plus every layout stream built so far;
  // streams converted on a previous call are skipped inside.
  layouts_->build_precision(precision);
  switch (precision) {
    case backends::Precision::kFp64:
      break;
    case backends::Precision::kFp32:
      attach_precision_buffers(layouts_->f32(), d_f32_, view_.planes_f32);
      break;
    case backends::Precision::kBf16s:
      attach_precision_buffers(layouts_->b16(), d_b16_, view_.planes_b16);
      break;
  }
}

Aprod::~Aprod() = default;

bool Aprod::tuning_in_progress() const {
  tuning::Autotuner* tuner = options_.autotuner;
  return tuner && active_backend() == tuner->backend() && tuner->active();
}

void Aprod::launch_kernel(KernelId id, bool fused, const real* in, real* out,
                          std::int32_t track) {
  const tuning::KernelRegistry& registry = tuning::KernelRegistry::global();
  auto& injector = resilience::FaultInjector::global();
  const char* name = fused ? "aprod2_fused" : kernel_region_name(id);
  for (;;) {
    const BackendKind backend = active_backend();
    // Trial launches only happen on the tuner's own backend: after a
    // failover the shapes being searched no longer describe the backend
    // actually executing, so the run falls back to the installed table.
    tuning::Autotuner* tuner = options_.autotuner;
    const bool trial = !fused && tuner && backend == tuner->backend() &&
                       tuner->searching(id);
    backends::KernelConfig cfg =
        trial ? tuner->propose(id) : options_.tuning.get(id);
    // The fused scatter interleaves all three sections in one row pass;
    // privatizing it would need every section's scratch at once for no
    // contention win, so fused launches always run the atomic strategy.
    if (fused) cfg.strategy = backends::ScatterStrategy::kAtomic;
    // Materialize the derived layout on first use; if the build cannot
    // fit the device, the launch clamps back to the always-present seed
    // layout instead of aborting the solve.
    if (cfg.layout != backends::StorageLayout::kSeedAos &&
        !view_.has_layout(cfg.layout)) {
      try {
        ensure_layout(cfg.layout);
      } catch (const Error&) {
        cfg.layout = backends::StorageLayout::kSeedAos;
      }
    }
    // Same lazy-materialize-or-clamp contract for the precision axis:
    // convert + upload the reduced-precision planes on first use, and
    // if the conversion cannot fit the device, run full precision.
    if (cfg.precision != backends::Precision::kFp64 &&
        !view_.has_precision(cfg.precision, cfg.layout)) {
      try {
        ensure_precision(cfg.precision);
      } catch (const Error&) {
        cfg.precision = backends::Precision::kFp64;
      }
    }
    try {
      resilience::with_retry(name, options_.retry, [&] {
        std::vector<obs::TraceArg> trace_args;
        if (obs::TraceRecorder::current().enabled())
          trace_args = kernel_trace_args(backend, cfg, options_.atomic_mode,
                                         view_, id, track, trial);
        // One start/stop pair per launch: the span, the registry sample,
        // the tuner's trial score and the stream-overlap sum all read it.
        obs::ScopedTrace span(
            name, "kernel", track, nullptr,
            trial || obs::MetricsRegistry::global().enabled(),
            std::move(trace_args));
        if (injector.armed() &&
            injector.should_fail_kernel(name, backends::to_string(backend)))
          throw resilience::TransientFault(
              std::string("injected launch failure: ") + name);
        tuning::LaunchArgs args;
        args.view = &view_;
        args.in = in;
        args.out = out;
        args.config = cfg;
        args.atomic_mode = options_.atomic_mode;
        args.arena = &scratch_arena_;
        if (fused)
          registry.launch_fused(backend, args);
        else
          registry.launch(id, backend, args);
        const double seconds = span.stop();
        if (trial) {
          // Closing a kernel's search installs its measured winner into
          // the live table, so the remaining iterations already run
          // tuned.
          if (tuner->report(id, cfg, seconds))
            options_.tuning.set(id, tuner->best(id));
        } else {
          pass_kernel_seconds_.fetch_add(seconds, std::memory_order_relaxed);
          record_launch_sample(view_, id, fused, backend, cfg, seconds);
        }
      });
      return;
    } catch (const resilience::PersistentFault&) {
      const auto next = resilience::next_backend(backend);
      if (!options_.failover || !next) throw;
      // Several streams can fault concurrently; only the first thread
      // advances the chain, the rest retry on the already-updated
      // backend.
      BackendKind expected = backend;
      if (active_backend_.compare_exchange_strong(expected, *next)) {
        failover_count_.fetch_add(1, std::memory_order_relaxed);
        note_failover(name, backend, *next);
      }
    }
  }
}

void Aprod::apply1(std::span<const real> x, std::span<real> y) {
  GAIA_CHECK(static_cast<col_index>(x.size()) == view_.n_cols,
             "aprod1 x size mismatch");
  GAIA_CHECK(static_cast<row_index>(y.size()) == view_.n_rows,
             "aprod1 y size mismatch");
  const real* xp = x.data();
  real* yp = y.data();
  static obs::SpanHistogram pass_seconds(obs::kAprod1PassSeconds);
  obs::ScopedTrace pass("aprod1", "aprod", obs::TraceRecorder::kMainTrack,
                        iteration_phase_ ? &pass_seconds : nullptr);
  // The four gathers all accumulate into y[r]: they must run in order
  // (one stream). Launched back to back on the calling thread, each one
  // independently retryable/failover-able (injected faults throw before
  // the kernel body runs, so a retried launch never double-applies).
  launch_kernel(KernelId::kAprod1Astro, false, xp, yp,
                obs::TraceRecorder::kMainTrack);
  launch_kernel(KernelId::kAprod1Att, false, xp, yp,
                obs::TraceRecorder::kMainTrack);
  launch_kernel(KernelId::kAprod1Instr, false, xp, yp,
                obs::TraceRecorder::kMainTrack);
  launch_kernel(KernelId::kAprod1Glob, false, xp, yp,
                obs::TraceRecorder::kMainTrack);
  launches_ += view_.has_global ? 4 : 3;
}

void Aprod::apply2(std::span<const real> y, std::span<real> x) {
  GAIA_CHECK(static_cast<row_index>(y.size()) == view_.n_rows,
             "aprod2 y size mismatch");
  GAIA_CHECK(static_cast<col_index>(x.size()) == view_.n_cols,
             "aprod2 x size mismatch");
  const real* yp = y.data();
  real* xp = x.data();
  // Timed whenever the registry is on: the streamed branch reads the
  // pass wall time for the overlap ratio.
  static obs::SpanHistogram pass_seconds(obs::kAprod2PassSeconds);
  obs::ScopedTrace pass("aprod2", "aprod", obs::TraceRecorder::kMainTrack,
                        iteration_phase_ ? &pass_seconds : nullptr,
                        obs::MetricsRegistry::global().enabled());

  if (options_.fuse_aprod2) {
    launch_kernel(KernelId::kAprod2Astro, false, yp, xp,
                  obs::TraceRecorder::kMainTrack);
    // The fused scatter is traced under its own name but shares the
    // attitude kernel's tuning/fault identity.
    launch_kernel(KernelId::kAprod2Att, true, yp, xp,
                  obs::TraceRecorder::kMainTrack);
    launches_ += 2;
    return;
  }

  const std::array<KernelId, 4> kernels = {
      KernelId::kAprod2Astro, KernelId::kAprod2Att, KernelId::kAprod2Instr,
      KernelId::kAprod2Glob};
  const std::size_t active = view_.has_global ? 4 : 3;

  if (options_.use_streams && !tuning_in_progress()) {
    // The scatters target disjoint sections of x, so overlapping them
    // does not increase atomic contention (paper SIV); each kernel goes
    // to its own stream, then all streams are joined. A launch fault
    // inside a stream retries/fails-over on the stream's thread; an
    // exhausted chain surfaces at synchronize(). While the autotuner is
    // still searching, overlap is suppressed: four concurrent kernels
    // would pollute each other's trial timings.
    pass_kernel_seconds_.store(0, std::memory_order_relaxed);
    for (std::size_t k = 0; k < active; ++k) {
      streams_[k]->enqueue([this, id = kernels[k], yp, xp,
                            track = streams_[k]->id()] {
        launch_kernel(id, false, yp, xp, track);
      });
    }
    for (std::size_t k = 0; k < active; ++k) streams_[k]->synchronize();
    // Overlap ratio: sum of per-kernel times over the pass wall time.
    // ~1.0 means the streams serialized, ~`active` means full overlap.
    obs::record_stream_overlap(
        pass_kernel_seconds_.load(std::memory_order_relaxed), pass.stop());
  } else {
    for (std::size_t k = 0; k < active; ++k)
      launch_kernel(kernels[k], false, yp, xp,
                    obs::TraceRecorder::kMainTrack);
  }
  launches_ += active;
}

}  // namespace gaia::core
