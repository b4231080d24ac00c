#include "obs/profile.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/perf_counters.hpp"

namespace gaia::obs {

namespace {

double series_sum(const std::vector<MetricRow>& rows, const char* name) {
  for (const MetricRow& r : rows)
    if (r.name == name) return r.sum;
  return 0;
}

/// Appends one printf-formatted line.
template <typename... Args>
void append(std::string& out, const char* format, Args... args) {
  char line[160];
  std::snprintf(line, sizeof line, format, args...);
  out += line;
}

}  // namespace

double IterationSplit::share_sum_pct() const {
  double total = 0;
  for (const SplitPart& p : parts) total += p.seconds;
  return iteration_s > 0 ? 100 * total / iteration_s : 0.0;
}

IterationSplit iteration_split(const std::vector<MetricRow>& rows) {
  IterationSplit split;
  for (const MetricRow& r : rows)
    if (r.name == kIterationSeconds) split.iterations = r.count;
  split.iteration_s = series_sum(rows, kIterationSeconds);
  split.parts = {
      {"aprod1 pass", series_sum(rows, kAprod1PassSeconds)},
      {"aprod2 pass", series_sum(rows, kAprod2PassSeconds)},
      {"BLAS-1", series_sum(rows, kBlas1ScaleSeconds) +
                     series_sum(rows, kBlas1UpdatesSeconds)},
      {"reductions", series_sum(rows, kReductionSeconds)}};
  double phases = 0;
  for (const SplitPart& p : split.parts) phases += p.seconds;
  split.parts.push_back({"other", std::max(0.0, split.iteration_s - phases)});
  return split;
}

std::string profile_report(const std::vector<MetricRow>& rows) {
  std::string out = "per-kernel launches (every rank):\n";
  append(out, "  %-13s %-8s %-10s %9s %12s %10s\n", "kernel", "backend",
         "strategy", "launches", "total (ms)", "mean (us)");
  KernelSeriesName k;
  for (const MetricRow& r : rows)
    if (parse_kernel_series(r.name, k) && k.field == "time_seconds" &&
        r.count > 0)
      append(out, "  %-13s %-8s %-10s %9llu %12.3f %10.1f\n",
             k.kernel.c_str(), k.backend.c_str(), k.strategy.c_str(),
             static_cast<unsigned long long>(r.count), r.sum * 1e3,
             r.sum / static_cast<double>(r.count) * 1e6);

  const IterationSplit split = iteration_split(rows);
  append(out,
         "iteration split (rank 0): %llu iteration(s), summed iteration "
         "wall time %.3f ms\n",
         static_cast<unsigned long long>(split.iterations),
         split.iteration_s * 1e3);
  const double pct = split.iteration_s > 0 ? 100 / split.iteration_s : 0.0;
  double total = 0;
  for (const SplitPart& p : split.parts) {
    total += p.seconds;
    append(out, "  %-12s %12.3f ms %6.1f %%\n", p.label.c_str(),
           p.seconds * 1e3, p.seconds * pct);
  }
  append(out, "  %-12s %12.3f ms %6.1f %%\n", "total", total * 1e3,
         split.share_sum_pct());
  return out;
}

}  // namespace gaia::obs
