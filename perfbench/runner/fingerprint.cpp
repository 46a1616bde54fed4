#include "fingerprint.hpp"

#include <string>
#include <thread>

#include "util/simd.hpp"

namespace perfbench {

using cspls::util::Json;

namespace {

const char* compiled_isa() {
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE4_2__)
  return "sse4.2";
#elif defined(__SSE2__)
  return "sse2";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "none";
#endif
}

Json cpu_isa() {
  Json isa = Json::array();
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) isa.push_back("sse4.2");
  if (__builtin_cpu_supports("avx2")) isa.push_back("avx2");
  if (__builtin_cpu_supports("avx512f")) isa.push_back("avx512f");
#endif
  return isa;
}

}  // namespace

Json fingerprint() {
  Json out = Json::object();
  out.set("hardware_threads",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
#if defined(__clang__)
  out.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  out.set("compiler", std::string("gcc ") + __VERSION__);
#else
  out.set("compiler", "unknown");
#endif
  out.set("compiled_isa", compiled_isa());
  out.set("cpu_isa", cpu_isa());
  out.set("simd_tier_runtime", cspls::util::simd::tier_name());
#if defined(CSPLS_SIMD)
  out.set("CSPLS_SIMD_defined", true);
#else
  out.set("CSPLS_SIMD_defined", false);
#endif
#if defined(CSPLS_FAULT_INJECTION)
  out.set("CSPLS_FAULT_INJECTION_defined", true);
#else
  out.set("CSPLS_FAULT_INJECTION_defined", false);
#endif
#if defined(NDEBUG)
  out.set("NDEBUG", true);
#else
  out.set("NDEBUG", false);
#endif
  return out;
}

}  // namespace perfbench
