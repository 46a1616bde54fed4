#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

namespace cspls::util::simd {
namespace {

/// Environment kill-switch, resolved once at first use: CSPLS_SIMD=0 (or
/// "off"/"false") disables the vector tier for the whole process without a
/// rebuild.  Anything else — including unset — leaves the build-time tier.
bool env_allows_simd() {
  const char* raw = std::getenv("CSPLS_SIMD");
  if (raw == nullptr) return true;
  const std::string value(raw);
  return !(value == "0" || value == "off" || value == "OFF" ||
           value == "false" || value == "FALSE");
}

std::atomic<bool> g_force_scalar{false};

bool one_shot_enabled() {
  static const bool enabled = compiled_with_vectors() && env_allows_simd();
  return enabled;
}

const char* detect_tier_name() {
  if (!one_shot_enabled()) return "scalar";
#if CSPLS_SIMD_CLONED
  // The same test, on the same {avx2, default} list, that the ifunc
  // resolvers of the CSPLS_SIMD_CLONES kernels run at load time.
  return __builtin_cpu_supports("avx2") ? "vector-ext[avx2]"
                                        : "vector-ext[sse2]";
#elif CSPLS_SIMD_VECTOR_EXT && defined(CSPLS_NATIVE)
  return "vector-ext[native]";
#elif CSPLS_SIMD_VECTOR_EXT
  return "vector-ext";
#else
  return "scalar";
#endif
}

}  // namespace

bool runtime_enabled() noexcept {
  return one_shot_enabled() &&
         !g_force_scalar.load(std::memory_order_relaxed);
}

void set_force_scalar(bool force) noexcept {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

const char* tier_name() noexcept {
  if (g_force_scalar.load(std::memory_order_relaxed)) return "scalar(forced)";
  static const char* const name = detect_tier_name();
  return name;
}

}  // namespace cspls::util::simd
