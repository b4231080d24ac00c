#include "tuning/tuning_cache.hpp"

#include <bit>
#include <limits>
#include <sstream>

#include "obs/metrics.hpp"
#include "resilience/checkpoint.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace gaia::tuning {

using backends::BackendKind;
using backends::KernelConfig;
using backends::KernelId;

ShapeBucket bucket_for(std::int64_t rows, std::int64_t cols) {
  const auto log2_floor = [](std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v < 1 ? 1 : v);
    return static_cast<std::int32_t>(std::bit_width(u) - 1);
  };
  return {log2_floor(rows), log2_floor(cols)};
}

std::string to_string(const ShapeBucket& bucket) {
  return "2^" + std::to_string(bucket.rows_log2) + " rows x 2^" +
         std::to_string(bucket.cols_log2) + " cols";
}

void TuningCache::put(BackendKind backend, ShapeBucket bucket,
                      KernelId kernel, KernelConfig config) {
  backends::validate_kernel_config(config, "TuningCache::put");
  entries_[make_key(backend, bucket, kernel)] = config;
}

std::optional<KernelConfig> TuningCache::find(BackendKind backend,
                                              ShapeBucket bucket,
                                              KernelId kernel) const {
  const auto it = entries_.find(make_key(backend, bucket, kernel));
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

int TuningCache::apply(BackendKind backend, ShapeBucket bucket,
                       backends::TuningTable& table) const {
  int applied = 0;
  for (KernelId id : backends::all_kernels()) {
    if (const auto cfg = find(backend, bucket, id)) {
      table.set(id, *cfg);
      ++applied;
    }
  }
  return applied;
}

bool TuningCache::complete_for(BackendKind backend, ShapeBucket bucket) const {
  for (KernelId id : backends::all_kernels()) {
    if (!find(backend, bucket, id)) return false;
  }
  return true;
}

std::string TuningCache::to_json() const {
  std::ostringstream os;
  os << "{\"version\":" << kSchemaVersion << ",\"entries\":[";
  bool first = true;
  for (const auto& [key, cfg] : entries_) {
    const auto& [backend, rows_log2, cols_log2, kernel] = key;
    if (!first) os << ',';
    first = false;
    os << "{\"backend\":\""
       << backends::to_string(static_cast<BackendKind>(backend))
       << "\",\"rows_log2\":" << rows_log2
       << ",\"cols_log2\":" << cols_log2 << ",\"kernel\":\""
       << backends::to_string(static_cast<KernelId>(kernel))
       << "\",\"blocks\":" << cfg.blocks << ",\"threads\":" << cfg.threads;
    for (const backends::TuningAxis& axis : backends::tuning_axes())
      os << ",\"" << axis.json_key << "\":\"" << axis.token(axis.get(cfg))
         << '"';
    os << '}';
  }
  os << "]}";
  return os.str();
}

namespace {

/// One entry of the cache document; throws gaia::Error when malformed.
void parse_entry(const util::JsonValue& value, TuningCache& cache) {
  util::JsonFields f(value, "tuning cache entry");
  const auto backend = backends::parse_backend(f.string("backend"));
  const auto kernel = backends::parse_kernel_id(f.string("kernel"));
  if (!backend || !kernel)
    throw Error("tuning cache entry: unknown backend or kernel");
  const ShapeBucket bucket{
      static_cast<std::int32_t>(f.integer("rows_log2", 0, 62)),
      static_cast<std::int32_t>(f.integer("cols_log2", 0, 62))};
  constexpr std::int64_t kIntMax = std::numeric_limits<std::int32_t>::max();
  KernelConfig cfg{static_cast<std::int32_t>(f.integer("blocks", 0, kIntMax)),
                   static_cast<std::int32_t>(f.integer("threads", 0, kIntMax))};
  // An absent axis key means arm 0 (the pre-axis behaviour).
  for (const backends::TuningAxis& axis : backends::tuning_axes()) {
    if (!f.has(axis.json_key)) continue;
    const auto arm = axis.parse(f.string(axis.json_key));
    if (!arm) throw Error("tuning cache entry: unknown " + axis.json_key);
    axis.set(cfg, *arm);
  }
  f.done();
  if (!backends::is_valid_kernel_config(cfg))
    throw Error("tuning cache entry: unlaunchable shape");
  cache.put(*backend, bucket, *kernel, cfg);
}

void note_version_miss() {
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    static obs::Counter& misses = reg.counter("tuning.cache.version_miss");
    misses.add(1);
  }
}

}  // namespace

std::optional<TuningCache> TuningCache::parse_json(const std::string& text,
                                                   ParseStatus* status) {
  const auto fail = [&](ParseStatus why) -> std::optional<TuningCache> {
    if (status) *status = why;
    return std::nullopt;
  };
  try {
    const util::JsonValue doc = util::parse_json(text);
    util::JsonFields f(doc, "tuning cache");
    // An honest file of another schema version is a clean miss, not
    // corruption — report it as such without trusting its entries (v1
    // predates the strategy axis, v2 the layout axis, v3 the precision
    // axis).
    if (f.integer("version", std::numeric_limits<std::int64_t>::min(),
                  std::numeric_limits<std::int64_t>::max()) !=
        kSchemaVersion)
      return fail(ParseStatus::kVersionMismatch);
    TuningCache cache;
    for (const util::JsonValue& entry : f.array("entries"))
      parse_entry(entry, cache);
    f.done();
    if (status) *status = ParseStatus::kOk;
    return cache;
  } catch (const Error&) {
    return fail(ParseStatus::kMalformed);
  }
}

bool TuningCache::load(const std::string& path) {
  entries_.clear();
  std::string payload;
  try {
    payload = resilience::read_framed_file(path);
  } catch (const Error&) {
    return false;  // missing, truncated or corrupt: behave as empty
  }
  ParseStatus status = ParseStatus::kMalformed;
  auto parsed = parse_json(payload, &status);
  if (!parsed) {
    if (status == ParseStatus::kVersionMismatch) note_version_miss();
    return false;
  }
  entries_ = std::move(parsed->entries_);
  return true;
}

void TuningCache::save(const std::string& path) const {
  resilience::write_framed_file(path, to_json());
}

}  // namespace gaia::tuning
