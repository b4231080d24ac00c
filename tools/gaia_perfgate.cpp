/// \file gaia_perfgate.cpp
/// \brief CLI perf-regression gate over BENCH_<name>.json baselines.
///
///   gaia-perfgate OLD.json NEW.json [--tolerance X] [--allow-missing]
///
/// Exit codes: 0 = within tolerance, 1 = regression (or a series
/// vanished without --allow-missing), 2 = usage / I/O / parse error.
/// CI runs this between a committed baseline and a fresh bench run; the
/// nonzero exit is what turns a silent slowdown into a red build.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "metrics/perf_baseline.hpp"
#include "util/error.hpp"

namespace {

constexpr const char* kUsage =
    "usage: gaia-perfgate OLD.json NEW.json [--tolerance X] "
    "[--allow-missing]\n"
    "  --tolerance X    allowed fractional slowdown (default 0.25)\n"
    "  --allow-missing  series missing from NEW do not fail the gate\n"
    "exit codes: 0 = gate passes, 1 = regression detected, 2 = bad "
    "input\n"
    "(the same contract as gaia-critpath, so CI can pipeline both)\n";

int fail_usage(const std::string& why) {
  std::cerr << "gaia-perfgate: " << why << '\n' << kUsage;
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string old_path, new_path;
  gaia::metrics::GateOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    }
    if (arg == "--allow-missing") {
      options.allow_missing = true;
    } else if (arg == "--tolerance" || arg.rfind("--tolerance=", 0) == 0) {
      std::string value;
      if (arg == "--tolerance") {
        if (++i >= argc) return fail_usage("--tolerance needs a value");
        value = argv[i];
      } else {
        value = arg.substr(std::string("--tolerance=").size());
      }
      char* end = nullptr;
      options.tolerance = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' ||
          !(std::isfinite(options.tolerance) && options.tolerance >= 0))
        return fail_usage("bad --tolerance value '" + value + "'");
    } else if (arg.rfind("--", 0) == 0) {
      return fail_usage("unknown option '" + arg + "'");
    } else if (old_path.empty()) {
      old_path = arg;
    } else if (new_path.empty()) {
      new_path = arg;
    } else {
      return fail_usage("too many positional arguments");
    }
  }
  if (old_path.empty() || new_path.empty())
    return fail_usage("need OLD.json and NEW.json");

  try {
    const auto base = gaia::metrics::load_baseline(old_path);
    const auto next = gaia::metrics::load_baseline(new_path);
    const auto report = gaia::metrics::perf_gate(base, next, options);
    std::cout << "comparing '" << base.name << "' (" << base.kernels.size()
              << " series) against '" << next.name << "' ("
              << next.kernels.size() << " series), tolerance "
              << options.tolerance << ":\n"
              << report.to_string();
    return report.pass ? 0 : 1;
  } catch (const gaia::Error& e) {
    std::cerr << "gaia-perfgate: " << e.what() << '\n';
    return 2;
  }
}
