#include "dist/comm.hpp"

#include <algorithm>
#include <exception>
#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace gaia::dist {

namespace {
/// Trace track of a rank's collectives. Ranks run on their own threads,
/// so each gets its own timeline lane (offset to stay clear of stream
/// ids).
std::int32_t rank_track(int rank) { return 1000 + rank; }
}  // namespace

World::World(int size) : size_(size) {
  GAIA_CHECK(size_ >= 1, "world needs at least one rank");
  barrier_ = std::make_unique<std::barrier<>>(size_);
}

void World::arrive_barrier() {
  // Checked on both sides of the wait: before, so a poisoned survivor
  // exits without arriving (the arrive_and_drop every rank thread makes
  // on exit keeps the phase count consistent); after, because the dead
  // rank's arrive_and_drop is what completed the phase we were blocked
  // in, and its poison store happens-before that completion.
  if (poisoned_.load(std::memory_order_acquire)) throw WorldPoisoned();
  barrier_->arrive_and_wait();
  if (poisoned_.load(std::memory_order_acquire)) throw WorldPoisoned();
}

void World::poison(std::exception_ptr error) {
  std::string what = "(unknown)";
  try {
    if (error) std::rethrow_exception(error);
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!first_error_) first_error_ = std::move(error);
  }
  poisoned_.store(true, std::memory_order_release);
  obs::flight_event("comm", "world.poisoned", what);
}

void World::collective_reduce(int rank, std::span<real> data, ReduceOp op,
                              double* wait_seconds) {
  const std::size_t n = data.size();
  {
    util::Stopwatch entry;
    arrive_barrier();
    if (wait_seconds) *wait_seconds = entry.elapsed_s();
  }
  if (rank == 0) reduce_buffer_.assign(static_cast<std::size_t>(size_) * n,
                                       real{0});
  arrive_barrier();
  // Each rank publishes its contribution in its own slice: no locking,
  // and the subsequent rank-ordered reduction is deterministic (the
  // production MPI_Allreduce is reproducible for a fixed rank count).
  std::copy(data.begin(), data.end(),
            reduce_buffer_.begin() + static_cast<std::size_t>(rank) * n);
  arrive_barrier();
  for (std::size_t i = 0; i < n; ++i) {
    real acc = reduce_buffer_[i];
    for (int r = 1; r < size_; ++r) {
      const real v = reduce_buffer_[static_cast<std::size_t>(r) * n + i];
      switch (op) {
        case ReduceOp::kSum:
          acc += v;
          break;
        case ReduceOp::kMax:
          acc = std::max(acc, v);
          break;
        case ReduceOp::kMin:
          acc = std::min(acc, v);
          break;
      }
    }
    data[i] = acc;
  }
  arrive_barrier();
}

void World::collective_bcast(int rank, std::span<real> data, int root,
                             double* wait_seconds) {
  GAIA_CHECK(root >= 0 && root < size_, "bcast root out of range");
  {
    util::Stopwatch entry;
    arrive_barrier();
    if (wait_seconds) *wait_seconds = entry.elapsed_s();
  }
  if (rank == root) bcast_source_ = data;
  arrive_barrier();
  if (rank != root)
    std::copy(bcast_source_.begin(), bcast_source_.end(), data.begin());
  arrive_barrier();
}

CommStats Comm::timed_collective(const char* name, std::uint64_t bytes,
                                 const std::function<double()>& body) {
  auto& rec = obs::TraceRecorder::current();
  const bool traced = rec.enabled();
  if (traced)
    rec.name_track(rank_track(rank_), "rank-" + std::to_string(rank_) +
                                          " comm");
  obs::ScopedTrace span(name, "comm", rank_track(rank_));
  span.add_arg({"rank", static_cast<std::int64_t>(rank_)});
  span.add_arg({"bytes", bytes});
  const double t0_us = traced ? rec.now_us() : 0;
  util::Stopwatch watch;
  const double wait_s = body();
  const double total_s = watch.elapsed_s();

  stats_.collectives += 1;
  stats_.bytes += bytes;
  stats_.seconds += total_s;
  stats_.wait_seconds += wait_s;
  span.add_arg({"wait_us", wait_s * 1e6});

  if (traced) {
    // The wait/exchange split as nested child spans: wait ends when the
    // last rank has arrived at the entry barrier, exchange covers the
    // actual transfer/reduce work. [t0, t0+wait][t0+wait, end] tiles
    // the parent span exactly, so Perfetto renders a two-level lane.
    const double wait_us = wait_s * 1e6;
    const double total_us = total_s * 1e6;
    const std::string prefix = name;
    rec.complete(prefix + ".wait", "comm", t0_us, wait_us,
                 rank_track(rank_), {{"rank", std::int64_t{rank_}}});
    rec.complete(prefix + ".exchange", "comm", t0_us + wait_us,
                 std::max(0.0, total_us - wait_us), rank_track(rank_),
                 {{"rank", std::int64_t{rank_}}, {"bytes", bytes}});
  }

  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    static obs::Counter& calls = reg.counter("comm.collective_calls");
    static obs::Histogram& waits = reg.histogram("comm.wait_seconds");
    calls.add(1);
    waits.record(wait_s);
  }
  return {1, bytes, total_s, wait_s};
}

void Comm::barrier() {
  timed_collective("barrier", 0, [&] {
    util::Stopwatch entry;
    world_->arrive_barrier();
    return entry.elapsed_s();
  });
}

void Comm::allreduce(std::span<real> data, ReduceOp op) {
  const auto bytes = static_cast<std::uint64_t>(data.size_bytes());
  const CommStats call = timed_collective("allreduce", bytes, [&] {
    double wait_s = 0;
    world_->collective_reduce(rank_, data, op, &wait_s);
    return wait_s;
  });
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    static obs::Counter& calls = reg.counter("comm.allreduce_calls");
    static obs::Counter& traffic = reg.counter("comm.allreduce_bytes");
    static obs::Histogram& seconds = reg.histogram("comm.allreduce_seconds");
    static obs::Histogram& waits =
        reg.histogram("comm.allreduce_wait_seconds");
    calls.add(1);
    traffic.add(bytes);
    seconds.record(call.seconds);
    waits.record(call.wait_seconds);
  }
}

real Comm::allreduce(real value, ReduceOp op) {
  allreduce(std::span<real>(&value, 1), op);
  return value;
}

void Comm::bcast(std::span<real> data, int root) {
  const auto bytes = static_cast<std::uint64_t>(data.size_bytes());
  timed_collective("bcast", bytes, [&] {
    double wait_s = 0;
    world_->collective_bcast(rank_, data, root, &wait_s);
    return wait_s;
  });
}

void World::run(const std::function<void(Comm&)>& body) {
  // Fresh barrier and poison state per collective epoch: a previous run
  // may have dropped participants on error.
  barrier_ = std::make_unique<std::barrier<>>(size_);
  bcast_source_ = {};
  poisoned_.store(false, std::memory_order_release);
  first_error_ = nullptr;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([this, r, &body] {
      Comm comm(this, r, size_);
      try {
        body(comm);
      } catch (const WorldPoisoned&) {
        // Collateral unwind of a survivor — the real error is already
        // recorded.
      } catch (...) {
        poison(std::current_exception());
      }
      // Every rank thread leaves the barrier exactly once, however its
      // body ended. A rank that caught a WorldPoisoned thrown before it
      // arrived (aggregate_metrics degrades to local rows that way)
      // returns normally, and a survivor already waiting in that phase
      // needs this arrival to wake, see the poison and unwind.
      barrier_->arrive_and_drop();
    });
  }
  for (auto& t : threads) t.join();
  if (std::exception_ptr error = std::exchange(first_error_, nullptr)) {
    poisoned_.store(false, std::memory_order_release);
    std::rethrow_exception(error);
  }
}

}  // namespace gaia::dist
