#include "backends/kernel_config.hpp"

#include <charconv>
#include <sstream>

#include "backends/atomic.hpp"
#include "util/error.hpp"

namespace gaia::backends {

std::string to_string(KernelId id) {
  switch (id) {
    case KernelId::kAprod1Astro:
      return "aprod1_astro";
    case KernelId::kAprod1Att:
      return "aprod1_att";
    case KernelId::kAprod1Instr:
      return "aprod1_instr";
    case KernelId::kAprod1Glob:
      return "aprod1_glob";
    case KernelId::kAprod2Astro:
      return "aprod2_astro";
    case KernelId::kAprod2Att:
      return "aprod2_att";
    case KernelId::kAprod2Instr:
      return "aprod2_instr";
    case KernelId::kAprod2Glob:
      return "aprod2_glob";
  }
  return "unknown_kernel";
}

std::string to_string(AtomicMode mode) {
  return mode == AtomicMode::kNativeRmw ? "rmw" : "cas";
}

const std::array<TuningAxis, kNumAxes>& tuning_axes() {
  static const std::array<TuningAxis, kNumAxes> axes{{
      {"scatter", "strategy", "aprod2 scatter strategy of the atomic kernels",
       {{"atomic"}, {"privatized"}},
       true,
       [](const KernelConfig& c) { return static_cast<int>(c.strategy); },
       [](KernelConfig& c, int arm) {
         c.strategy = static_cast<ScatterStrategy>(arm);
       }},
      {"layout", "layout", "kernel coefficient storage layout",
       {{"seed_aos", "seed", "aos"}, {"soa_tiled", "soa"},
        {"sliced_instr", "sliced"}},
       false,
       [](const KernelConfig& c) { return static_cast<int>(c.layout); },
       [](KernelConfig& c, int arm) {
         c.layout = static_cast<StorageLayout>(arm);
       }},
      {"precision", "precision",
       "coefficient storage precision (reduced precisions arm FP64 "
       "iterative refinement after the solve)",
       {{"fp64", "double", "f64"}, {"fp32", "single", "float", "f32"},
        {"bf16s", "bf16", "bfloat16"}},
       false,
       [](const KernelConfig& c) { return static_cast<int>(c.precision); },
       [](KernelConfig& c, int arm) {
         c.precision = static_cast<Precision>(arm);
       }},
  }};
  return axes;
}

std::optional<int> TuningAxis::parse(const std::string& token) const {
  for (int arm = 0; arm < num_arms(); ++arm)
    for (const std::string& t : arms[static_cast<std::size_t>(arm)])
      if (t == token) return arm;
  return std::nullopt;
}

std::string TuningAxis::accepted(const std::string& sep) const {
  std::string out;
  for (const auto& tokens : arms)
    for (const std::string& t : tokens) out += (out.empty() ? "" : sep) + t;
  return out;
}

std::string to_string(ScatterStrategy strategy) {
  return tuning_axes()[kScatterAxis].token(static_cast<int>(strategy));
}

std::string to_string(StorageLayout layout) {
  return tuning_axes()[kLayoutAxis].token(static_cast<int>(layout));
}

std::string to_string(Precision precision) {
  return tuning_axes()[kPrecisionAxis].token(static_cast<int>(precision));
}

std::optional<KernelId> parse_kernel_id(const std::string& name) {
  for (KernelId id : all_kernels()) {
    if (name == to_string(id)) return id;
  }
  return std::nullopt;
}

const std::array<KernelId, kNumKernels>& all_kernels() {
  static const std::array<KernelId, kNumKernels> ids = {
      KernelId::kAprod1Astro, KernelId::kAprod1Att, KernelId::kAprod1Instr,
      KernelId::kAprod1Glob,  KernelId::kAprod2Astro, KernelId::kAprod2Att,
      KernelId::kAprod2Instr, KernelId::kAprod2Glob};
  return ids;
}

bool is_valid_kernel_config(KernelConfig cfg) {
  if (cfg.is_default()) return true;
  return cfg.blocks >= 1 && cfg.blocks <= kMaxBlocks && cfg.threads >= 1 &&
         cfg.threads <= kMaxThreads;
}

void validate_kernel_config(KernelConfig cfg, const std::string& context) {
  if (is_valid_kernel_config(cfg)) return;
  std::ostringstream os;
  os << context << ": invalid kernel launch shape (blocks=" << cfg.blocks
     << ", threads=" << cfg.threads << "); expected {0,0} (backend default) "
     << "or blocks in [1, " << kMaxBlocks << "] and threads in [1, "
     << kMaxThreads << "]";
  throw Error(os.str());
}

KernelConfig parse_kernel_config(const std::string& text) {
  const auto fail = [&](const char* why) -> KernelConfig {
    throw Error("kernel config \"" + text + "\": " + why +
                " (expected BLOCKSxTHREADS, e.g. 32x128)");
  };
  const std::size_t sep = text.find_first_of("xX*");
  if (sep == std::string::npos || sep == 0 || sep + 1 >= text.size())
    return fail("malformed");
  KernelConfig cfg;
  const char* b = text.data();
  auto r1 = std::from_chars(b, b + sep, cfg.blocks);
  auto r2 = std::from_chars(b + sep + 1, b + text.size(), cfg.threads);
  if (r1.ec != std::errc{} || r1.ptr != b + sep || r2.ec != std::errc{} ||
      r2.ptr != b + text.size())
    return fail("not a pair of integers");
  validate_kernel_config(cfg, "kernel config \"" + text + "\"");
  return cfg;
}

void TuningTable::set(KernelId id, KernelConfig cfg) {
  validate_kernel_config(cfg, "TuningTable::set(" + to_string(id) + ")");
  table_[static_cast<std::size_t>(id)] = cfg;
}

void TuningTable::set_all(KernelConfig cfg) {
  validate_kernel_config(cfg, "TuningTable::set_all");
  table_.fill(cfg);
}

TuningTable TuningTable::tuned_default() {
  TuningTable t;
  // Full-occupancy shapes for the gather-style kernels...
  const KernelConfig wide{256, 128};
  t.set(KernelId::kAprod1Astro, wide);
  t.set(KernelId::kAprod1Att, wide);
  t.set(KernelId::kAprod1Instr, wide);
  t.set(KernelId::kAprod1Glob, wide);
  t.set(KernelId::kAprod2Astro, wide);
  // ...and deliberately narrow shapes where atomics collide (paper SIV):
  // fewer blocks and threads lower the collision probability at the cost
  // of occupancy, recovered by overlapping the kernels in streams.
  const KernelConfig narrow{32, 32};
  t.set(KernelId::kAprod2Att, narrow);
  t.set(KernelId::kAprod2Instr, narrow);
  t.set(KernelId::kAprod2Glob, {8, 32});
  return t;
}

TuningTable TuningTable::untuned(KernelConfig cfg) {
  TuningTable t;
  t.set_all(cfg);
  return t;
}

}  // namespace gaia::backends
