/// \file bench_smoke.cpp
/// \brief Fast per-kernel timing sweep that emits a BENCH_smoke.json
/// perf baseline — the producer side of the `gaia-perfgate` CI gate.
///
/// Launches each of the eight aprod kernels directly through the
/// KernelRegistry on a small host-resident system, records the median
/// launch time per kernel, and writes a metrics::PerfBaseline. Runs in
/// well under a second, so CI can afford two runs (baseline + verify)
/// plus an injected-slowdown run to prove the gate trips:
///
///   bench_smoke --out BENCH_smoke.json
///   bench_smoke --out slow.json --slowdown aprod2_att=2.0
///   gaia-perfgate BENCH_smoke.json slow.json   # exits 1
#include <algorithm>
#include <array>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "backends/scratch_arena.hpp"
#include "obs/sampler.hpp"
#include "core/kernel_catalog.hpp"
#include "core/system_view.hpp"
#include "matrix/generator.hpp"
#include "matrix/layouted_system.hpp"
#include "metrics/perf_baseline.hpp"
#include "tuning/kernel_registry.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace gaia;

/// `--slowdown KERNEL=FACTOR`: busy-spin after the named kernel inside
/// the timed region until its launch appears FACTOR times slower. CI
/// uses this to prove the gate actually trips on a regression.
struct Slowdown {
  std::string kernel;
  double factor = 1.0;
};

Slowdown parse_slowdown(const std::string& spec) {
  Slowdown s;
  if (spec.empty()) return s;
  const auto eq = spec.find('=');
  GAIA_CHECK(eq != std::string::npos && eq > 0 && eq + 1 < spec.size(),
             "bad --slowdown spec '" + spec + "' (want KERNEL=FACTOR)");
  s.kernel = spec.substr(0, eq);
  s.factor = std::stod(spec.substr(eq + 1));
  GAIA_CHECK(s.factor >= 1.0, "--slowdown factor must be >= 1");
  return s;
}

void busy_spin_for(double seconds) {
  util::Stopwatch watch;
  volatile double sink = 0;
  while (watch.elapsed_s() < seconds) sink = sink + 1.0;
}

double iqr(const std::vector<double>& xs) {
  return util::percentile(xs, 75) - util::percentile(xs, 25);
}

/// Verdict of an arm against a baseline arm from their per-rep aprod
/// totals: the medians differ only when the gap exceeds the larger of
/// the two interquartile ranges (single medians on a shared host move
/// by several percent run to run).
std::string verdict(const std::vector<double>& arm,
                    const std::vector<double>& base,
                    const std::string& base_name) {
  const double gain = util::median(base) - util::median(arm);
  const double spread = std::max(iqr(arm), iqr(base));
  if (gain > spread) return " (beats " + base_name + ")";
  if (-gain > spread) return " (slower than " + base_name + ")";
  return " (within spread of " + base_name + ")";
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("bench_smoke",
                "Per-kernel smoke timings -> perf-gate baseline JSON");
  cli.add_option("out", "BENCH_smoke.json", "baseline output path");
  cli.add_option("reps", "9", "timed repetitions per kernel");
  cli.add_option("backend", "openmp", "serial | openmp | pstl | gpusim");
  cli.add_option("stars", "1500",
                 "synthetic system size in stars (large enough that the "
                 "system leaves L2 and the layout comparison is a "
                 "bandwidth story, still well under a second)");
  cli.add_option("slowdown", "",
                 "KERNEL=FACTOR: artificially slow one kernel "
                 "(regression-injection for gate tests)");
  cli.add_option("telemetry-file", "",
                 "run the telemetry sampler during the sweep, streaming "
                 "JSONL here — compare kernel medians with/without to "
                 "measure sampler overhead");
  cli.add_option("telemetry-every-ms", "0",
                 "sampling period for --telemetry-file (0 = default 250)");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const auto backend_opt = backends::parse_backend(cli.get("backend"));
    GAIA_CHECK(backend_opt.has_value(),
               "unknown backend '" + cli.get("backend") + "'");
    const backends::BackendKind backend = *backend_opt;
    const auto reps = static_cast<int>(cli.get_int("reps"));
    GAIA_CHECK(reps > 0, "--reps must be positive");
    const Slowdown slowdown = parse_slowdown(cli.get("slowdown"));

    std::unique_ptr<obs::TelemetrySampler> sampler;
    if (!cli.get("telemetry-file").empty()) {
      obs::SamplerConfig scfg;
      scfg.path = cli.get("telemetry-file");
      const int every = static_cast<int>(cli.get_int("telemetry-every-ms"));
      if (every > 0) scfg.period_ms = every;
      sampler = std::make_unique<obs::TelemetrySampler>(scfg);
    }

    matrix::GeneratorConfig cfg;
    cfg.seed = 4242;
    cfg.n_stars = cli.get_int("stars");
    const matrix::GeneratedSystem gen = matrix::generate_system(cfg);
    core::ensure_kernel_catalog();
    core::SystemView view = core::SystemView::from(gen.A);
    // All three storage layouts are timed, so derived arrays are built
    // up front and attached to the view; per-row series are labeled
    // with their layout so the gate tracks each independently.
    matrix::LayoutedSystem layouts(gen.A);
    layouts.build(backends::StorageLayout::kSlicedInstr);  // implies SoA
    view.attach_layout(layouts);
    // Reduced-precision planes for every layout, so the precision axis
    // is timed on the same memory story as the layout axis.
    layouts.build_precision(backends::Precision::kFp32);
    layouts.build_precision(backends::Precision::kBf16s);
    view.attach_precision(layouts);
    const tuning::KernelRegistry& registry = tuning::KernelRegistry::global();
    const backends::TuningTable table = backends::TuningTable::tuned_default();
    backends::ScratchArena arena;

    util::Xoshiro256 rng(7);
    std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()));
    std::vector<real> y(static_cast<std::size_t>(gen.A.n_rows()));
    for (auto& v : x) v = rng.normal();
    for (auto& v : y) v = rng.normal();

    metrics::PerfBaseline baseline;
    baseline.name = "smoke";
    // Per-rep sums of the eight kernels' launch times, per (precision,
    // layout): the verdicts below compare these distributions.
    std::array<std::array<std::vector<double>, backends::kNumStorageLayouts>,
               backends::kNumPrecisions>
        rep_totals;
    for (auto& per_layout : rep_totals)
      for (auto& totals : per_layout)
        totals.assign(static_cast<std::size_t>(reps), 0.0);
    for (int pi = 0; pi < backends::kNumPrecisions; ++pi) {
      const auto precision = static_cast<backends::Precision>(pi);
      for (int li = 0; li < backends::kNumStorageLayouts; ++li) {
        const auto layout = static_cast<backends::StorageLayout>(li);
        for (backends::KernelId id : backends::all_kernels()) {
          const bool is_aprod1 = id < backends::KernelId::kAprod2Astro;
          tuning::LaunchArgs args;
          args.view = &view;
          args.in = is_aprod1 ? x.data() : y.data();
          args.out = is_aprod1 ? y.data() : x.data();
          args.config = table.get(id);
          args.config.layout = layout;
          args.config.precision = precision;
          args.arena = &arena;
          const std::string name = backends::to_string(id);
          const double spin_factor =
              name == slowdown.kernel ? slowdown.factor - 1.0 : 0.0;

          std::vector<double> samples;
          samples.reserve(static_cast<std::size_t>(reps));
          registry.launch(id, backend, args);  // warm-up, untimed
          for (int r = 0; r < reps; ++r) {
            util::Stopwatch watch;
            registry.launch(id, backend, args);
            if (spin_factor > 0)
              busy_spin_for(spin_factor * watch.elapsed_s());
            samples.push_back(watch.elapsed_s());
          }

          metrics::KernelTiming timing;
          timing.kernel = name;
          timing.backend = backends::to_string(backend);
          timing.strategy = backends::kernel_uses_atomics(id)
                                ? backends::to_string(args.config.strategy)
                                : "none";
          timing.layout = backends::to_string(layout);
          timing.precision = backends::to_string(precision);
          timing.median_seconds = util::median(samples);
          timing.samples = samples.size();
          baseline.kernels.push_back(timing);
          std::vector<double>& totals =
              rep_totals[static_cast<std::size_t>(pi)]
                        [static_cast<std::size_t>(li)];
          for (std::size_t r = 0; r < samples.size(); ++r)
            totals[r] += samples[r];
          std::cout << name << " [" << timing.layout << '/'
                    << timing.precision << "]: median "
                    << timing.median_seconds * 1e3 << " ms over " << reps
                    << " rep(s)\n";
        }
      }
    }
    // One line per layout (at fp64): the median per-rep aprod total and
    // a verdict against seed_aos for every derived layout. CI asserts a
    // verdict line per derived arm, not a winner: on a shared host the
    // arms sit within each other's spread.
    const auto total_line = [&](std::size_t pi, std::size_t li) {
      const std::vector<double>& totals = rep_totals[pi][li];
      std::ostringstream os;
      os << util::median(totals) * 1e3 << " ms (IQR " << iqr(totals) * 1e3
         << " ms)";
      return os.str();
    };
    for (std::size_t li = 0; li < backends::kNumStorageLayouts; ++li) {
      const auto layout = static_cast<backends::StorageLayout>(li);
      std::cout << "layout total [" << backends::to_string(layout)
                << "]: " << total_line(0, li)
                << (li > 0 ? verdict(rep_totals[0][li], rep_totals[0][0],
                                     "seed_aos")
                           : "")
                << '\n';
    }
    // Precision verdicts: per (precision, layout) against the same
    // layout's fp64 totals, one line per reduced-precision arm.
    for (std::size_t pi = 1; pi < backends::kNumPrecisions; ++pi) {
      const auto precision = static_cast<backends::Precision>(pi);
      for (std::size_t li = 0; li < backends::kNumStorageLayouts; ++li) {
        const auto layout = static_cast<backends::StorageLayout>(li);
        std::cout << "precision total [" << backends::to_string(layout)
                  << '/' << backends::to_string(precision)
                  << "]: " << total_line(pi, li)
                  << verdict(rep_totals[pi][li], rep_totals[0][li], "fp64")
                  << '\n';
      }
    }

    metrics::save_baseline(cli.get("out"), baseline);
    std::cout << "wrote " << baseline.kernels.size() << " series to "
              << cli.get("out") << '\n';
    return 0;
  } catch (const gaia::Error& e) {
    std::cerr << "bench_smoke: " << e.what() << '\n';
    return 1;
  }
}
