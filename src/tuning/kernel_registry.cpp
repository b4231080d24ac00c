#include "tuning/kernel_registry.hpp"

#include "core/system_view.hpp"
#include "util/error.hpp"

namespace gaia::tuning {

using backends::Precision;
using backends::StorageLayout;

namespace {
/// The layout a launch actually runs with: a derived layout whose
/// arrays are not attached to the view clamps to the seed — a view
/// without descriptors keeps seed semantics instead of faulting on the
/// null pointers (the contract documented on SystemView::has_layout).
StorageLayout effective_layout(const LaunchArgs& args) {
  const StorageLayout layout = args.config.layout;
  if (layout != StorageLayout::kSeedAos && args.view != nullptr &&
      !args.view->has_layout(layout))
    return StorageLayout::kSeedAos;
  return layout;
}

/// The precision a launch actually runs with: a reduced precision whose
/// converted planes are not attached for the effective layout clamps to
/// fp64 (SystemView::has_precision) — reduced precision degrades to
/// full precision, never to a fault.
Precision effective_precision(const LaunchArgs& args, StorageLayout layout) {
  const Precision p = args.config.precision;
  if (p != Precision::kFp64 && args.view != nullptr &&
      !args.view->has_precision(p, layout))
    return Precision::kFp64;
  return p;
}
}  // namespace

void KernelRegistry::add(backends::KernelId id,
                         backends::BackendKind backend,
                         KernelLauncher launcher, StorageLayout layout,
                         Precision precision) {
  GAIA_CHECK(launcher != nullptr, "KernelRegistry::add: null launcher");
  table_[index(id, backend, layout, precision)] = std::move(launcher);
}

void KernelRegistry::add_privatized(backends::KernelId id,
                                    backends::BackendKind backend,
                                    KernelLauncher launcher,
                                    StorageLayout layout,
                                    Precision precision) {
  GAIA_CHECK(launcher != nullptr,
             "KernelRegistry::add_privatized: null launcher");
  GAIA_CHECK(backends::kernel_uses_atomics(id),
             "KernelRegistry::add_privatized: " + backends::to_string(id) +
                 " has no atomic scatter to privatize");
  privatized_[index(id, backend, layout, precision)] = std::move(launcher);
}

bool KernelRegistry::has(backends::KernelId id,
                         backends::BackendKind backend, StorageLayout layout,
                         Precision precision) const {
  return table_[index(id, backend, layout, precision)] != nullptr;
}

bool KernelRegistry::has_privatized(backends::KernelId id,
                                    backends::BackendKind backend,
                                    StorageLayout layout,
                                    Precision precision) const {
  return privatized_[index(id, backend, layout, precision)] != nullptr;
}

void KernelRegistry::launch(backends::KernelId id,
                            backends::BackendKind backend,
                            const LaunchArgs& args) const {
  const StorageLayout layout = effective_layout(args);
  Precision precision = effective_precision(args, layout);
  LaunchArgs run = args;
  run.config.layout = layout;
  if (args.config.strategy == backends::ScatterStrategy::kPrivatized &&
      backends::kernel_uses_atomics(id)) {
    const KernelLauncher* pfn =
        &privatized_[index(id, backend, layout, precision)];
    // Empty precision slot clamps to the fp64 plane of the same layout;
    // an empty derived-layout slot then falls back to the seed layout.
    if (!*pfn && precision != Precision::kFp64) {
      precision = Precision::kFp64;
      pfn = &privatized_[index(id, backend, layout, precision)];
    }
    if (!*pfn && layout != StorageLayout::kSeedAos)
      pfn = &privatized_[index(id, backend, StorageLayout::kSeedAos,
                               precision)];
    if (!*pfn)
      throw Error(
          "KernelRegistry: no privatized launcher registered for kernel " +
          backends::to_string(id) + " on backend " +
          backends::to_string(backend));
    run.config.precision = precision;
    (*pfn)(run);
    return;
  }
  const KernelLauncher* fn = &table_[index(id, backend, layout, precision)];
  if (!*fn && precision != Precision::kFp64) {
    precision = Precision::kFp64;
    fn = &table_[index(id, backend, layout, precision)];
  }
  if (!*fn && layout != StorageLayout::kSeedAos)
    fn = &table_[index(id, backend, StorageLayout::kSeedAos, precision)];
  if (!*fn)
    throw Error("KernelRegistry: no launcher registered for kernel " +
                backends::to_string(id) + " on backend " +
                backends::to_string(backend));
  run.config.precision = precision;
  (*fn)(run);
}

std::size_t KernelRegistry::size() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < kPlane; ++i)
    if (table_[i]) ++n;
  return n;
}

KernelRegistry& KernelRegistry::global() {
  static KernelRegistry registry;
  return registry;
}

}  // namespace gaia::tuning
