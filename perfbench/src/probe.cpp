// Machine ceilings of this host, measured rather than modeled: a STREAM
// triad and a 24-lane random gather shaped like aprod1 (one output per
// row, 24 coefficients' worth of x gathered at scattered columns).
// Every array is at least four times the last-level cache, so neither
// figure is a cache bandwidth.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kLanes = 24;  // non-zeros per row of the Gaia system

/// Runs body(begin, end) over [0, n) split across `threads` workers.
template <typename F>
void parallel_for(std::size_t n, unsigned threads, F&& body) {
  std::vector<std::thread> pool;
  const std::size_t chunk = (n + threads - 1) / threads;
  for (unsigned t = 0; t < threads; ++t) {
    const std::size_t b = std::min(n, t * chunk);
    const std::size_t e = std::min(n, b + chunk);
    pool.emplace_back([&body, b, e] { body(b, e); });
  }
  for (std::thread& th : pool) th.join();
}

std::uint64_t mix(std::uint64_t z) {  // splitmix64 finalizer
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

int run_probe() {
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (llc <= 0) llc = 64L << 20;  // nothing reported: assume a large LLC
  const std::size_t n = 4 * static_cast<std::size_t>(llc) / sizeof(double);
  const double array_mib = static_cast<double>(n * sizeof(double)) / kMiB;

  std::vector<double> a, b, c;
  double stream_gbs = 0;
  {
    // First touch in parallel so pages spread like the timed loop's.
    a.resize(n);
    b.resize(n);
    c.resize(n);
    parallel_for(n, threads, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        a[i] = 0;
        b[i] = 1.0 + static_cast<double>(i % 7);
        c[i] = 2.0;
      }
    });
    constexpr int kReps = 5;
    std::vector<double> t;
    for (int r = 0; r < kReps; ++r) {
      const double s = 0.5 + r;
      const Clock::time_point t0 = Clock::now();
      parallel_for(n, threads, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
      });
      t.push_back(seconds_between(t0, Clock::now()));
    }
    // STREAM counts three arrays of traffic per triad element.
    stream_gbs = 3.0 * static_cast<double>(n * sizeof(double)) /
                 median(t) / 1e9;
    std::vector<double>().swap(b);
    std::vector<double>().swap(c);
  }

  // Gather from `a` (the x of aprod1): each row reads 24 entries at
  // pseudo-random columns and writes one result.
  const std::size_t rows = std::size_t{1} << 21;
  std::vector<double> y(rows);
  constexpr int kReps = 3;
  std::vector<double> t;
  for (int r = 0; r < kReps; ++r) {
    const Clock::time_point t0 = Clock::now();
    parallel_for(rows, threads, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        double sum = 0;
        for (int k = 0; k < kLanes; ++k)
          sum += a[mix(i * kLanes + k + r * rows * kLanes) % n];
        y[i] = sum;
      }
    });
    t.push_back(seconds_between(t0, Clock::now()));
  }
  const double gather_gbs = static_cast<double>(rows * kLanes * sizeof(double)) /
                            median(t) / 1e9;

  std::cerr << "probe: LLC " << static_cast<double>(llc) / kMiB
            << " MiB; STREAM triad over 3 arrays of " << array_mib
            << " MiB; gather of " << rows << " rows x " << kLanes
            << " lanes from a " << array_mib << " MiB array; " << threads
            << " threads\n";
  JsonObject out;
  out.str("mode", "probe")
      .num("machine.stream_gbs", stream_gbs)
      .num("machine.gather_gbs", gather_gbs)
      .num("llc_mib", static_cast<double>(llc) / kMiB)
      .num("array_mib", array_mib)
      .integer("threads", threads);
  std::cout << out.text() << std::endl;
  return 0;
}

}  // namespace perfbench
