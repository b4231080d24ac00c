#include "tuning/autotuner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace gaia::tuning {

using backends::KernelConfig;
using backends::KernelId;

namespace {

void note_trial() {
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    static obs::Counter& trials = reg.counter("tuning.trials");
    trials.add(1);
  }
}

void note_winner(KernelId id, KernelConfig cfg, double median_s) {
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    static obs::Counter& tuned = reg.counter("tuning.kernels_tuned");
    tuned.add(1);
  }
  auto& rec = obs::TraceRecorder::current();
  if (rec.enabled()) {
    rec.instant("tuning_winner", "tuning", obs::TraceRecorder::kMainTrack,
                {{"kernel", backends::to_string(id)},
                 {"blocks", static_cast<std::int64_t>(cfg.blocks)},
                 {"threads", static_cast<std::int64_t>(cfg.threads)},
                 {"strategy", backends::to_string(cfg.strategy)},
                 {"layout", backends::to_string(cfg.layout)},
                 {"precision", backends::to_string(cfg.precision)},
                 {"median_us", median_s * 1e6}});
  }
}

}  // namespace

backends::AxisPins AutotuneOptions::pins() const {
  const auto pin = [](const auto& field) -> std::optional<int> {
    if (!field) return std::nullopt;
    return static_cast<int>(*field);
  };
  return {pin(scatter), pin(layout), pin(precision)};
}

void AutotuneOptions::set_pins(const backends::AxisPins& pins) {
  const auto set = [](auto& field, std::optional<int> arm) {
    using Enum = typename std::decay_t<decltype(field)>::value_type;
    field = arm ? std::optional<Enum>(static_cast<Enum>(*arm)) : std::nullopt;
  };
  set(scatter, pins[backends::kScatterAxis]);
  set(layout, pins[backends::kLayoutAxis]);
  set(precision, pins[backends::kPrecisionAxis]);
}

Autotuner::Autotuner(backends::BackendKind backend, AutotuneOptions options)
    : backend_(backend),
      options_(std::move(options)),
      enabled_(backends::honors_kernel_config(backend)) {
  GAIA_CHECK(options_.samples_per_config >= 1,
             "autotuner needs at least one sample per config");
  GAIA_CHECK(options_.max_configs_per_kernel >= 1,
             "autotuner needs a positive config budget");
  GAIA_CHECK(!options_.block_grid.empty() && !options_.thread_grid.empty(),
             "autotuner search grid must not be empty");
  for (std::int32_t b : options_.block_grid)
    backends::validate_kernel_config({b, options_.thread_grid.front()},
                                     "autotuner block grid");
  for (std::int32_t t : options_.thread_grid)
    backends::validate_kernel_config({options_.block_grid.front(), t},
                                     "autotuner thread grid");
}

bool Autotuner::active() const {
  if (!enabled_) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  return std::any_of(search_.begin(), search_.end(),
                     [](const KernelSearch& s) { return !s.finished; });
}

bool Autotuner::searching(KernelId id) const {
  if (!enabled_) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  return !search_[static_cast<std::size_t>(id)].finished;
}

KernelConfig Autotuner::config_of(Candidate c) const {
  KernelConfig cfg{options_.block_grid[static_cast<std::size_t>(c.bi)],
                   options_.thread_grid[static_cast<std::size_t>(c.ti)]};
  for (std::size_t a = 0; a < backends::kNumAxes; ++a)
    backends::tuning_axes()[a].set(cfg, c.arms[a]);
  return cfg;
}

int Autotuner::nearest_index(const std::vector<std::int32_t>& grid,
                             std::int32_t value) const {
  int best = 0;
  for (std::size_t i = 1; i < grid.size(); ++i) {
    if (std::abs(grid[i] - value) < std::abs(grid[best] - value))
      best = static_cast<int>(i);
  }
  return best;
}

void Autotuner::seed_locked(KernelId id, KernelSearch& s) {
  // Arm list = the product of every axis's arms, first axis major
  // (strategy, then layout, then precision). An axis the kernel does not
  // carry keeps arm 0, a pinned axis its pinned arm, an open axis runs
  // every arm.
  const backends::AxisPins pins = options_.pins();
  std::vector<Arms> combos{Arms{}};
  for (std::size_t a = 0; a < backends::kNumAxes; ++a) {
    const backends::TuningAxis& axis = backends::tuning_axes()[a];
    std::vector<int> arms{0};
    if (pins[a])
      arms = {*pins[a]};
    else
      for (int arm = 1; arm < axis.num_arms(); ++arm) arms.push_back(arm);
    if (!axis.applies_to(id)) arms = {0};
    std::vector<Arms> next;
    for (const Arms& prefix : combos)
      for (int arm : arms) {
        next.push_back(prefix);
        next.back()[a] = arm;
      }
    combos = std::move(next);
  }
  // The paper's prior: atomic scatters want few threads in flight
  // (collision avoidance), gathers want occupancy. The privatized
  // strategy has no collisions, so its arm seeds wide. The first combo
  // descends now, the rest are queued (stack, so pushed in reverse).
  const auto seed_of = [&](const Arms& arms) {
    Candidate c;
    c.arms = arms;
    const bool narrow =
        backends::kernel_uses_atomics(id) &&
        config_of(c).strategy == backends::ScatterStrategy::kAtomic;
    c.bi = nearest_index(options_.block_grid, narrow ? 32 : 128);
    c.ti = nearest_index(options_.thread_grid, narrow ? 32 : 128);
    return c;
  };
  for (std::size_t i = combos.size(); i > 1; --i)
    s.arm_seeds.push_back(seed_of(combos[i - 1]));
  const Candidate start = seed_of(combos.front());
  s.current = start;
  s.visited.insert({start.arms, start.bi, start.ti});
  s.started = true;
}

void Autotuner::push_neighbors_locked(KernelSearch& s, Candidate c) {
  const auto try_push = [&](int bi, int ti) {
    if (bi < 0 || ti < 0 ||
        bi >= static_cast<int>(options_.block_grid.size()) ||
        ti >= static_cast<int>(options_.thread_grid.size()))
      return;
    if (!s.visited.insert({c.arms, bi, ti}).second) return;
    s.pending.push_back({bi, ti, c.arms});
  };
  // Shape moves only — this is the coordinate-descent step set. The
  // tuning axes are not descent axes: each arm descends from its own
  // seed.
  try_push(c.bi - 1, c.ti);
  try_push(c.bi + 1, c.ti);
  try_push(c.bi, c.ti - 1);
  try_push(c.bi, c.ti + 1);
}

KernelConfig Autotuner::propose(KernelId id) {
  if (!enabled_) return {};
  std::lock_guard<std::mutex> lock(mutex_);
  KernelSearch& s = search_[static_cast<std::size_t>(id)];
  if (s.finished) return s.scored ? config_of(s.best) : KernelConfig{};
  if (!s.started) seed_locked(id, s);
  return config_of(s.current);
}

bool Autotuner::report(KernelId id, KernelConfig cfg, double seconds) {
  if (!enabled_) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  KernelSearch& s = search_[static_cast<std::size_t>(id)];
  if (s.finished || !s.started) return false;
  if (cfg != config_of(s.current)) return false;  // stale (e.g. failover)
  trials_++;
  note_trial();
  // Trial launches bypass the Aprod sample path (their shapes are search
  // candidates, not production config), but their wall times still
  // belong in the per-kernel latency histograms.
  obs::record_kernel_time(
      backends::to_string(id), backends::to_string(backend_),
      backends::kernel_uses_atomics(id) ? backends::to_string(cfg.strategy)
                                        : "none",
      seconds);
  s.samples.push_back(seconds);
  if (static_cast<int>(s.samples.size()) < options_.samples_per_config)
    return false;

  const double med = util::median(s.samples);
  s.samples.clear();
  s.evaluated++;
  s.arm_evaluated++;
  // The descent is per arm combination: neighbors expand when the
  // *arm's* best improves (an arm whose seed loses to another arm still
  // deserves its local search). The overall winner is tracked alongside.
  const auto [arm, fresh] = s.arm_best.try_emplace(s.current.arms);
  if (fresh || med < arm->second.median) {
    arm->second = {s.current, med};
    push_neighbors_locked(s, s.current);
  }
  if (!s.scored || med < s.best_median) {
    s.best = s.current;
    s.best_median = med;
    s.scored = true;
  }
  if (s.pending.empty() ||
      s.arm_evaluated >= options_.max_configs_per_kernel) {
    if (!s.arm_seeds.empty()) {
      // This arm is done; start the next arm combination's seed.
      const Candidate seed = s.arm_seeds.back();
      s.arm_seeds.pop_back();
      s.pending.clear();
      s.arm_evaluated = 0;
      s.current = seed;
      s.visited.insert({seed.arms, seed.bi, seed.ti});
      return false;
    }
    s.finished = true;
    note_winner(id, config_of(s.best), s.best_median);
    return true;
  }
  s.current = s.pending.back();
  s.pending.pop_back();
  return false;
}

KernelConfig Autotuner::best(KernelId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const KernelSearch& s = search_[static_cast<std::size_t>(id)];
  return s.scored ? config_of(s.best) : KernelConfig{};
}

double Autotuner::best_median_s(KernelId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const KernelSearch& s = search_[static_cast<std::size_t>(id)];
  return s.scored ? s.best_median : std::numeric_limits<double>::infinity();
}

const Autotuner::ArmBest* Autotuner::best_arm(const KernelSearch& s,
                                              std::size_t axis, int arm) {
  const ArmBest* best = nullptr;
  for (const auto& [arms, scored] : s.arm_best)
    if (arms[axis] == arm && (!best || scored.median < best->median))
      best = &scored;
  return best;
}

KernelConfig Autotuner::best_for(KernelId id, std::size_t axis,
                                 int arm) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const ArmBest* best =
      best_arm(search_[static_cast<std::size_t>(id)], axis, arm);
  return best ? config_of(best->best) : KernelConfig{};
}

double Autotuner::best_median_for(KernelId id, std::size_t axis,
                                  int arm) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const ArmBest* best =
      best_arm(search_[static_cast<std::size_t>(id)], axis, arm);
  return best ? best->median : std::numeric_limits<double>::infinity();
}

std::uint64_t Autotuner::trials() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return trials_;
}

int Autotuner::kernels_tuned() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int n = 0;
  for (const KernelSearch& s : search_)
    if (s.finished && s.scored) ++n;
  return n;
}

backends::TuningTable Autotuner::apply_winners(
    backends::TuningTable base) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (KernelId id : backends::all_kernels()) {
    const KernelSearch& s = search_[static_cast<std::size_t>(id)];
    if (s.scored) base.set(id, config_of(s.best));
  }
  return base;
}

void Autotuner::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (KernelSearch& s : search_) s.finished = true;
}

std::vector<real> encode_table(const backends::TuningTable& table) {
  std::vector<real> out;
  out.reserve(kEncodedTableSize);
  for (backends::KernelId id : backends::all_kernels()) {
    const KernelConfig cfg = table.get(id);
    out.push_back(static_cast<real>(cfg.blocks));
    out.push_back(static_cast<real>(cfg.threads));
    for (const backends::TuningAxis& axis : backends::tuning_axes())
      out.push_back(static_cast<real>(axis.get(cfg)));
  }
  return out;
}

backends::TuningTable decode_table(std::span<const real> data) {
  GAIA_CHECK(data.size() == kEncodedTableSize,
             "decode_table: wrong element count");
  backends::TuningTable table;
  const real* v = data.data();
  for (backends::KernelId id : backends::all_kernels()) {
    KernelConfig cfg{static_cast<std::int32_t>(v[0]),
                     static_cast<std::int32_t>(v[1])};
    v += 2;
    for (const backends::TuningAxis& axis : backends::tuning_axes()) {
      const real code = *v++;
      // Range-checked as a real: NaN and huge codes fail before the cast.
      if (!(code >= 0 && code < axis.num_arms()))
        throw Error("decode_table: unknown " + axis.name + " arm");
      axis.set(cfg, static_cast<int>(code));
    }
    table.set(id, cfg);
  }
  return table;
}

}  // namespace gaia::tuning
