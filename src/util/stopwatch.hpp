/// \file stopwatch.hpp
/// \brief Wall-clock timing for iteration-time measurements.
#pragma once

#include <chrono>

namespace gaia::util {

/// Monotonic stopwatch. The paper's metric is the average LSQR iteration
/// time; all timings in this library are wall-clock seconds as doubles.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  [[nodiscard]] double elapsed_ms() const { return elapsed_s() * 1e3; }
  [[nodiscard]] double elapsed_us() const { return elapsed_s() * 1e6; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace gaia::util
