// Source-compatibility shim, no behaviour. The config plane has exactly one
// implementation (DESIGN.md §9); these names survive only because the
// frozen end-to-end benchmark (e2ebench/) still compiles against them.
// Remove this header, ConfigController's 4th constructor argument and
// FleetConfig::kernel once the benchmark drops the calls.
#pragma once

#include <string>
#include <string_view>

namespace relogic::config {

/// Descriptor of the single config-plane implementation.
struct KernelBackend {
  std::string name() const { return "scalar"; }
  std::string variant() const { return "scalar"; }
};

inline const KernelBackend& default_kernel_backend() {
  static const KernelBackend kernel;
  return kernel;
}

/// The descriptor when `name` is its name, else nullptr.
inline const KernelBackend* kernel_backend(std::string_view name) {
  const KernelBackend& k = default_kernel_backend();
  return name == k.name() ? &k : nullptr;
}

}  // namespace relogic::config
