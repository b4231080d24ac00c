#include "util/stopwatch.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace gaia::util {
namespace {

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = w.elapsed_s();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 5.0);  // generous upper bound for loaded CI
}

TEST(Stopwatch, ResetRestartsClock) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  w.reset();
  EXPECT_LT(w.elapsed_s(), 0.015);
}

TEST(Stopwatch, UnitConversionsConsistent) {
  Stopwatch w;
  const double s = w.elapsed_s();
  EXPECT_GE(w.elapsed_ms(), s * 1e3 * 0.5);
  EXPECT_GE(w.elapsed_us(), s * 1e6 * 0.5);
}

}  // namespace
}  // namespace gaia::util
