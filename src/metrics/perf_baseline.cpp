#include "metrics/perf_baseline.hpp"

#include <fstream>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/json.hpp"

namespace gaia::metrics {

const KernelTiming* PerfBaseline::find(const std::string& kernel,
                                       const std::string& backend,
                                       const std::string& strategy,
                                       const std::string& layout,
                                       const std::string& precision) const {
  for (const KernelTiming& t : kernels)
    if (t.kernel == kernel && t.backend == backend &&
        t.strategy == strategy && t.layout == layout &&
        t.precision == precision)
      return &t;
  return nullptr;
}

namespace {

KernelTiming parse_timing(const util::JsonValue& value) {
  util::JsonFields f(value, "perf baseline series");
  KernelTiming t;
  t.kernel = f.string("kernel");
  t.backend = f.string("backend");
  t.strategy = f.string("strategy");
  if (f.has("layout")) t.layout = f.string("layout");
  if (f.has("precision")) t.precision = f.string("precision");
  t.median_seconds = f.number("median_seconds", 0);
  t.samples = static_cast<std::uint64_t>(f.integer(
      "samples", 0, std::numeric_limits<std::int64_t>::max()));
  f.done();
  if (t.kernel.empty())
    throw Error("perf baseline series: key 'kernel' is empty");
  return t;
}

}  // namespace

std::string PerfBaseline::to_json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\n  \"version\": " << kVersion
     << ",\n  \"name\": " << util::json_quote(name) << ",\n  \"kernels\": [";
  bool first = true;
  for (const KernelTiming& t : kernels) {
    os << (first ? "\n" : ",\n")
       << "    {\"kernel\": " << util::json_quote(t.kernel)
       << ", \"backend\": " << util::json_quote(t.backend)
       << ", \"strategy\": " << util::json_quote(t.strategy)
       << ", \"layout\": " << util::json_quote(t.layout)
       << ", \"precision\": " << util::json_quote(t.precision)
       << ", \"median_seconds\": " << t.median_seconds
       << ", \"samples\": " << t.samples << '}';
    first = false;
  }
  os << "\n  ]\n}\n";
  return os.str();
}

PerfBaseline parse_baseline(const std::string& json) {
  const util::JsonValue doc = util::parse_json(json);
  util::JsonFields f(doc, "perf baseline");
  const std::int64_t version = f.integer(
      "version", std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max());
  if (version != PerfBaseline::kVersion)
    throw Error("perf baseline: unsupported version " +
                std::to_string(version));
  PerfBaseline out;
  out.name = f.string("name");
  for (const util::JsonValue& series : f.array("kernels"))
    out.kernels.push_back(parse_timing(series));
  f.done();
  return out;
}

PerfBaseline load_baseline(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.good()) throw Error("cannot open perf baseline: " + path);
  std::ostringstream buf;
  buf << file.rdbuf();
  try {
    return parse_baseline(buf.str());
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

void save_baseline(const std::string& path, const PerfBaseline& baseline) {
  std::ofstream f(path, std::ios::trunc);
  GAIA_CHECK(f.good(), "cannot open perf baseline for writing: " + path);
  f << baseline.to_json();
  GAIA_CHECK(f.good(), "perf baseline write failed: " + path);
}

std::string GateReport::to_string() const {
  std::ostringstream os;
  const auto line = [&os](const char* tag, const GateFinding& f) {
    os << "  " << tag << ' ' << f.kernel << '/' << f.backend << '/'
       << f.strategy << '/' << f.layout << '/' << f.precision << ": "
       << f.old_seconds << "s -> " << f.new_seconds << "s";
    if (f.ratio > 0) os << " (x" << f.ratio << ')';
    os << '\n';
  };
  for (const GateFinding& f : regressions) line("REGRESSION", f);
  for (const GateFinding& f : missing) line("MISSING", f);
  for (const GateFinding& f : improvements) line("improvement", f);
  os << (pass ? "PASS" : "FAIL") << ": " << regressions.size()
     << " regression(s), " << missing.size() << " missing, "
     << improvements.size() << " improvement(s)\n";
  return os.str();
}

GateReport perf_gate(const PerfBaseline& base, const PerfBaseline& next,
                     const GateOptions& options) {
  GateReport report;
  for (const KernelTiming& old_t : base.kernels) {
    GateFinding f;
    f.kernel = old_t.kernel;
    f.backend = old_t.backend;
    f.strategy = old_t.strategy;
    f.layout = old_t.layout;
    f.precision = old_t.precision;
    f.old_seconds = old_t.median_seconds;
    const KernelTiming* new_t =
        next.find(old_t.kernel, old_t.backend, old_t.strategy, old_t.layout,
                  old_t.precision);
    if (new_t == nullptr) {
      report.missing.push_back(f);
      if (!options.allow_missing) report.pass = false;
      continue;
    }
    f.new_seconds = new_t->median_seconds;
    if (old_t.median_seconds > 0)
      f.ratio = new_t->median_seconds / old_t.median_seconds;
    if (f.ratio > 1.0 + options.tolerance) {
      report.regressions.push_back(f);
      report.pass = false;
    } else if (f.ratio > 0 && f.ratio < 1.0 / (1.0 + options.tolerance)) {
      report.improvements.push_back(f);
    }
  }
  return report;
}

}  // namespace gaia::metrics
