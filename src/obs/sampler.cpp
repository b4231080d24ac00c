#include "obs/sampler.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace gaia::obs {

namespace {

thread_local int t_progress_rank = -1;

/// The single registered sampler (guarded: register/unregister happen on
/// the owning thread, reads from failure paths may race a destructor —
/// keep it a plain atomic pointer and never dereference after stop()).
std::atomic<TelemetrySampler*> g_active{nullptr};

double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

// ---------------------------------------------------------------------------
// ProgressBoard
// ---------------------------------------------------------------------------

void ProgressBoard::begin(int rank, std::int64_t max_iterations,
                          std::string phase) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  Slot& slot = slots_[rank];
  slot.row = Row{};
  slot.row.rank = rank;
  slot.row.max_iterations = max_iterations;
  slot.row.phase = std::move(phase);
  slot.start = std::chrono::steady_clock::now();
}

void ProgressBoard::update(int rank, std::int64_t iteration, double rnorm,
                           double arnorm) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = slots_.find(rank);
  if (it == slots_.end()) return;
  it->second.row.iteration = iteration;
  it->second.row.rnorm = rnorm;
  it->second.row.arnorm = arnorm;
}

void ProgressBoard::set_phase(int rank, std::string phase) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = slots_.find(rank);
  if (it == slots_.end()) return;
  it->second.row.phase = std::move(phase);
}

void ProgressBoard::end(int rank) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  slots_.erase(rank);
}

std::vector<ProgressBoard::Row> ProgressBoard::snapshot() const {
  std::vector<Row> rows;
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  rows.reserve(slots_.size());
  for (const auto& [rank, slot] : slots_) {
    Row row = slot.row;
    row.elapsed_s =
        std::chrono::duration<double>(now - slot.start).count();
    rows.push_back(std::move(row));
  }
  return rows;
}

void ProgressBoard::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  slots_.clear();
}

int ProgressBoard::thread_rank() { return t_progress_rank; }
void ProgressBoard::set_thread_rank(int rank) { t_progress_rank = rank; }

ProgressBoard& ProgressBoard::global() {
  static ProgressBoard board;
  return board;
}

// ---------------------------------------------------------------------------
// TelemetrySampler
// ---------------------------------------------------------------------------

TelemetrySampler::TelemetrySampler(SamplerConfig config)
    : config_(std::move(config)),
      start_(std::chrono::steady_clock::now()),
      last_snapshot_flush_(start_) {
  config_.period_ms = std::max(config_.period_ms, 1);
  config_.ring_capacity = std::max<std::size_t>(config_.ring_capacity, 1);
  if (!config_.path.empty()) {
    // Truncate up front so a crash mid-run leaves a coherent (possibly
    // short) series, never an interleave with a previous run's tail.
    std::ofstream f(config_.path, std::ios::trunc);
    if (!f.good())
      std::cerr << "telemetry: cannot open " << config_.path
                << " (stream disabled, ring only)\n";
  }
  ProgressBoard::global().set_enabled(true);
  TelemetrySampler* expected = nullptr;
  g_active.compare_exchange_strong(expected, this);
  thread_ = std::thread([this] { run(); });
}

TelemetrySampler::~TelemetrySampler() { stop(); }

void TelemetrySampler::stop() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    if (stopped_) return;
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stopped_ = true;
  }
  TelemetrySampler* self = this;
  // Only the registered sampler tears down the shared state — a second
  // (never-registered) sampler stopping must not disable the board under
  // the first one.
  if (g_active.compare_exchange_strong(self, nullptr))
    ProgressBoard::global().set_enabled(false);
}

std::vector<std::string> TelemetrySampler::ring_tail(
    std::size_t max_lines) const {
  std::lock_guard<std::mutex> lock(ring_mutex_);
  const std::size_t n = std::min(max_lines, ring_.size());
  return {ring_.end() - static_cast<std::ptrdiff_t>(n), ring_.end()};
}

TelemetrySampler* TelemetrySampler::active() {
  return g_active.load(std::memory_order_acquire);
}

void TelemetrySampler::run() {
  std::unique_lock<std::mutex> lock(wake_mutex_);
  while (!stopping_) {
    wake_.wait_for(lock, std::chrono::milliseconds(config_.period_ms),
                   [this] { return stopping_; });
    if (stopping_) break;
    lock.unlock();
    tick(/*final_tick=*/false);
    lock.lock();
  }
  lock.unlock();
  tick(/*final_tick=*/true);
}

void TelemetrySampler::tick(bool final_tick) {
  const double t_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_)
          .count();
  const std::uint64_t seq = samples_.fetch_add(1, std::memory_order_relaxed);

  const std::vector<ProgressBoard::Row> progress =
      ProgressBoard::global().snapshot();

  std::ostringstream os;
  os.precision(12);
  os << "{\"t_s\":" << t_s << ",\"sample\":" << seq << ",\"progress\":[";
  // The rank whose solve lags furthest drives the ETA (a dist solve is
  // done when its slowest rank is).
  double eta_s = -1;
  const ProgressBoard::Row* lead = nullptr;
  bool first = true;
  for (const ProgressBoard::Row& row : progress) {
    if (!first) os << ',';
    first = false;
    double row_eta = -1;
    if (row.iteration > 0 && row.max_iterations > row.iteration &&
        row.elapsed_s > 0)
      row_eta = row.elapsed_s / static_cast<double>(row.iteration) *
                static_cast<double>(row.max_iterations - row.iteration);
    os << "{\"rank\":" << row.rank
       << ",\"phase\":" << util::json_quote(row.phase)
       << ",\"iteration\":" << row.iteration
       << ",\"max_iterations\":" << row.max_iterations
       << ",\"rnorm\":" << finite_or_zero(row.rnorm)
       << ",\"arnorm\":" << finite_or_zero(row.arnorm)
       << ",\"elapsed_s\":" << row.elapsed_s << ",\"eta_s\":" << row_eta
       << '}';
    if (row_eta > eta_s) {
      eta_s = row_eta;
      lead = &row;
    }
    if (!lead) lead = &row;
  }
  os << ']';
  auto& reg = MetricsRegistry::global();
  if (reg.enabled()) {
    os << ",\"metrics\":{";
    bool first_m = true;
    for (const MetricRow& m : reg.snapshot()) {
      if (!first_m) os << ',';
      first_m = false;
      const double value = m.type == "counter" ? m.sum
                           : m.type == "gauge" ? m.last
                                               : m.p50;
      os << util::json_quote(m.name) << ':' << finite_or_zero(value);
    }
    os << '}';
  }
  os << '}';
  std::string line = std::move(os).str();

  {
    std::lock_guard<std::mutex> lock(ring_mutex_);
    ring_.push_back(line);
    while (ring_.size() > config_.ring_capacity) {
      ring_.pop_front();
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  if (!config_.path.empty()) {
    std::ofstream f(config_.path, std::ios::app);
    if (f.good()) f << line << '\n';
  }

  if (config_.progress_stderr && !progress.empty() && lead) {
    std::ostringstream ps;
    ps.precision(3);
    ps << "\r[gaia] " << lead->phase;
    if (lead->rank >= 0) ps << " rank " << lead->rank;
    if (lead->max_iterations > 0) {
      ps << ' ' << lead->iteration << '/' << lead->max_iterations << " ("
         << (100 * lead->iteration / std::max<std::int64_t>(
                                         lead->max_iterations, 1))
         << "%)";
    }
    ps << " |r|=" << finite_or_zero(lead->rnorm);
    if (eta_s >= 0) ps << " eta " << eta_s << "s";
    ps << "   ";
    if (final_tick) ps << '\n';
    std::cerr << ps.str() << std::flush;
  }

  if (config_.snapshot_every_s > 0) {
    const auto now = std::chrono::steady_clock::now();
    const double since =
        std::chrono::duration<double>(now - last_snapshot_flush_).count();
    if (since >= config_.snapshot_every_s) {
      last_snapshot_flush_ = now;
      flush_global_snapshot();
    }
  }
}

}  // namespace gaia::obs
