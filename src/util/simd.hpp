// Portable fixed-width SIMD lanes for the data-parallel cost kernels.
//
// Two tiers, selected at *build* time by the CSPLS_SIMD CMake option and at
// *run* time by a one-shot dispatch check:
//
//   - vector tier: the lane types wrap GNU vector extensions
//     (`__attribute__((vector_size(32)))`), which GCC and Clang lower to the
//     ISA of the function they are inlined into.  No intrinsic headers, no
//     per-ISA source.
//   - scalar tier: the same types backed by plain arrays with per-lane
//     loops.  Bit-for-bit the same results — the tier choice is a pure
//     performance decision, never a semantic one.
//
// ISA clones: in GCC builds for x86-64 ELF the kernels' lane loops are
// marked CSPLS_SIMD_CLONES, which compiles each of them twice — for AVX2 and for
// the build's baseline (SSE2 on a stock x86-64 target) — behind an ifunc
// resolver that picks the copy once, at load time, from the CPU's features.
// The portable default build therefore runs single 256-bit ops on AVX2 CPUs
// and never executes an AVX2 instruction elsewhere.  CSPLS_NATIVE builds
// (-march=native) skip the clones: their baseline is already the host's
// best ISA.  ODR rule: every lane op below is CSPLS_SIMD_INLINE
// (always_inline), so it is only ever expanded inside its caller and takes
// the caller's ISA; no out-of-line copy of a header function is ever
// compiled for AVX2, where the linker could hand it to baseline code.  Put
// CSPLS_SIMD_CLONES only on the .cpp definition of non-virtual,
// non-template functions, never on a header declaration (GCC 12 then binds
// a cloned caller in another TU straight to the callee's TU-local .avx2
// clone, which does not link), define each one above its first caller in
// its .cpp (Clang refuses to multiversion an already-used declaration),
// and keep lane values out of the signatures of anything the clone calls
// out of line (-Wpsabi stays clean that way).
//
// Lane-tail rules (documented in README "Hot path"): kernels process full
// lanes only and fall back to the scalar loop for the tail; scratch arrays
// that back full-lane loads are padded to a lane multiple via padded_size()
// so a full-width load never reads past the logical end.  Gathers are
// scalar-assisted (per-lane loads): portable, and on the kernels' tiny
// occurrence tables the loads all hit L1.
//
// Runtime dispatch: runtime_enabled() is the one-shot check the kernels
// consult before choosing the vector code path.  It is false when the build
// disabled CSPLS_SIMD, when the CSPLS_SIMD environment variable is "0"/"off"
// at process start, or after set_force_scalar(true) (how the tests and
// bench_micro_solver pit the two tiers against each other inside one
// binary).  Flipping force-scalar while solver threads are running is not
// supported — flip it only between solves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(CSPLS_SIMD) && (defined(__GNUC__) || defined(__clang__))
#define CSPLS_SIMD_VECTOR_EXT 1
#else
#define CSPLS_SIMD_VECTOR_EXT 0
#endif

#if defined(__GNUC__) || defined(__clang__)
#define CSPLS_SIMD_INLINE __attribute__((always_inline)) inline
#else
#define CSPLS_SIMD_INLINE inline
#endif

// CSPLS_SIMD_CLONES: compile the marked lane loop for {avx2, baseline} and
// pick one per process through the ifunc resolver (see the header comment).
// CSPLS_SIMD_CLONED tells whether the clones are in this build.  GCC only
// for now: Clang builds compile the lane loops once, for the baseline ISA.
#if CSPLS_SIMD_VECTOR_EXT && defined(__x86_64__) && defined(__ELF__) && \
    !defined(CSPLS_NATIVE) && !defined(__clang__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CSPLS_SIMD_CLONED 1
#endif
#endif
#ifndef CSPLS_SIMD_CLONED
#define CSPLS_SIMD_CLONED 0
#endif
#if CSPLS_SIMD_CLONED
#define CSPLS_SIMD_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define CSPLS_SIMD_CLONES
#endif

namespace cspls::util::simd {

/// True when the vector tier was compiled in at all.
[[nodiscard]] constexpr bool compiled_with_vectors() noexcept {
  return CSPLS_SIMD_VECTOR_EXT != 0;
}

/// One-shot runtime dispatch: should the kernels take the vector code path?
[[nodiscard]] bool runtime_enabled() noexcept;

/// Force the scalar tier at runtime (tests / A-B benchmarking).  Global;
/// only flip between solves, never while walkers are running.
void set_force_scalar(bool force) noexcept;

/// Human-readable tier that actually runs: "vector-ext[avx2]" or
/// "vector-ext[sse2]" for the clone the resolver picks on this CPU,
/// "vector-ext[native]" under CSPLS_NATIVE, "vector-ext" for vector builds
/// on other targets, "scalar" or "scalar(forced)".
[[nodiscard]] const char* tier_name() noexcept;

/// Smallest multiple of `lanes` >= n (scratch padding for full-lane loads).
[[nodiscard]] constexpr std::size_t padded_size(std::size_t n,
                                                std::size_t lanes) noexcept {
  return (n + lanes - 1) / lanes * lanes;
}

// --- i32x8: eight 32-bit lanes --------------------------------------------
//
// Comparisons return lane masks (-1 for true, 0 for false), so boolean
// counting composes as plain lane arithmetic: `acc + cmp` subtracts one per
// true lane, `acc - cmp` adds one.  This is exactly the shape the kernels'
// surplus marginals want.

struct i32x8 {
  static constexpr std::size_t kLanes = 8;
#if CSPLS_SIMD_VECTOR_EXT
  using native = std::int32_t __attribute__((vector_size(32)));
  native v;
#else
  std::int32_t v[kLanes];
#endif

  [[nodiscard]] CSPLS_SIMD_INLINE static i32x8 load(
      const std::int32_t* p) noexcept {
    i32x8 r;
    std::memcpy(&r.v, p, sizeof(r.v));
    return r;
  }

  CSPLS_SIMD_INLINE void store(std::int32_t* p) const noexcept {
    std::memcpy(p, &v, sizeof(v));
  }

  [[nodiscard]] CSPLS_SIMD_INLINE static i32x8 broadcast(
      std::int32_t s) noexcept {
    i32x8 r;
#if CSPLS_SIMD_VECTOR_EXT
    r.v = native{s, s, s, s, s, s, s, s};
#else
    for (std::size_t k = 0; k < kLanes; ++k) r.v[k] = s;
#endif
    return r;
  }

  /// {first, first+1, ..., first+7} — candidate-index lanes.
  [[nodiscard]] CSPLS_SIMD_INLINE static i32x8 iota(
      std::int32_t first) noexcept {
#if CSPLS_SIMD_VECTOR_EXT
    i32x8 r;
    r.v = native{0, 1, 2, 3, 4, 5, 6, 7};
    return r + broadcast(first);
#else
    i32x8 r;
    for (std::size_t k = 0; k < kLanes; ++k) {
      r.v[k] = first + static_cast<std::int32_t>(k);
    }
    return r;
#endif
  }

  /// Scalar-assisted gather: r[k] = base[idx[k]].  Indices are signed —
  /// kernels gather difference tables through a base pointer aimed at the
  /// table's centre, so negative lanes are legitimate.
  [[nodiscard]] CSPLS_SIMD_INLINE static i32x8 gather(const std::int32_t* base,
                                    const i32x8& idx) noexcept {
    i32x8 r;
    for (std::size_t k = 0; k < kLanes; ++k) {
      r.v[k] = base[static_cast<std::ptrdiff_t>(idx.v[k])];
    }
    return r;
  }

  [[nodiscard]] CSPLS_SIMD_INLINE std::int32_t lane(
      std::size_t k) const noexcept {
    return v[k];
  }

  CSPLS_SIMD_INLINE friend i32x8 operator+(
      const i32x8& a, const i32x8& b) noexcept {
    i32x8 r;
#if CSPLS_SIMD_VECTOR_EXT
    r.v = a.v + b.v;
#else
    for (std::size_t k = 0; k < kLanes; ++k) r.v[k] = a.v[k] + b.v[k];
#endif
    return r;
  }

  CSPLS_SIMD_INLINE friend i32x8 operator-(
      const i32x8& a, const i32x8& b) noexcept {
    i32x8 r;
#if CSPLS_SIMD_VECTOR_EXT
    r.v = a.v - b.v;
#else
    for (std::size_t k = 0; k < kLanes; ++k) r.v[k] = a.v[k] - b.v[k];
#endif
    return r;
  }

  CSPLS_SIMD_INLINE friend i32x8 operator^(
      const i32x8& a, const i32x8& b) noexcept {
    i32x8 r;
#if CSPLS_SIMD_VECTOR_EXT
    r.v = a.v ^ b.v;
#else
    for (std::size_t k = 0; k < kLanes; ++k) r.v[k] = a.v[k] ^ b.v[k];
#endif
    return r;
  }

  CSPLS_SIMD_INLINE friend i32x8 operator&(
      const i32x8& a, const i32x8& b) noexcept {
    i32x8 r;
#if CSPLS_SIMD_VECTOR_EXT
    r.v = a.v & b.v;
#else
    for (std::size_t k = 0; k < kLanes; ++k) r.v[k] = a.v[k] & b.v[k];
#endif
    return r;
  }

  CSPLS_SIMD_INLINE friend i32x8 operator|(
      const i32x8& a, const i32x8& b) noexcept {
    i32x8 r;
#if CSPLS_SIMD_VECTOR_EXT
    r.v = a.v | b.v;
#else
    for (std::size_t k = 0; k < kLanes; ++k) r.v[k] = a.v[k] | b.v[k];
#endif
    return r;
  }

  [[nodiscard]] CSPLS_SIMD_INLINE friend i32x8 operator~(
      const i32x8& a) noexcept {
    return a ^ broadcast(-1);
  }
};

/// |a| per lane, branch-free: (a ^ (a >> 31)) - (a >> 31).
[[nodiscard]] CSPLS_SIMD_INLINE i32x8 abs(const i32x8& a) noexcept {
  i32x8 r;
#if CSPLS_SIMD_VECTOR_EXT
  const i32x8::native m = a.v >> 31;
  r.v = (a.v ^ m) - m;
#else
  for (std::size_t k = 0; k < i32x8::kLanes; ++k) {
    const std::int32_t m = a.v[k] >> 31;
    r.v[k] = (a.v[k] ^ m) - m;
  }
#endif
  return r;
}

[[nodiscard]] CSPLS_SIMD_INLINE i32x8 min(
    const i32x8& a, const i32x8& b) noexcept {
  i32x8 r;
#if CSPLS_SIMD_VECTOR_EXT
  const i32x8::native m = a.v < b.v;
  r.v = (m & a.v) | (~m & b.v);
#else
  for (std::size_t k = 0; k < i32x8::kLanes; ++k) {
    r.v[k] = a.v[k] < b.v[k] ? a.v[k] : b.v[k];
  }
#endif
  return r;
}

[[nodiscard]] CSPLS_SIMD_INLINE i32x8 cmp_eq(
    const i32x8& a, const i32x8& b) noexcept {
  i32x8 r;
#if CSPLS_SIMD_VECTOR_EXT
  r.v = a.v == b.v;
#else
  for (std::size_t k = 0; k < i32x8::kLanes; ++k) {
    r.v[k] = a.v[k] == b.v[k] ? -1 : 0;
  }
#endif
  return r;
}

[[nodiscard]] CSPLS_SIMD_INLINE i32x8 cmp_ge(
    const i32x8& a, const i32x8& b) noexcept {
  i32x8 r;
#if CSPLS_SIMD_VECTOR_EXT
  r.v = a.v >= b.v;
#else
  for (std::size_t k = 0; k < i32x8::kLanes; ++k) {
    r.v[k] = a.v[k] >= b.v[k] ? -1 : 0;
  }
#endif
  return r;
}

[[nodiscard]] CSPLS_SIMD_INLINE i32x8 cmp_gt(
    const i32x8& a, const i32x8& b) noexcept {
  i32x8 r;
#if CSPLS_SIMD_VECTOR_EXT
  r.v = a.v > b.v;
#else
  for (std::size_t k = 0; k < i32x8::kLanes; ++k) {
    r.v[k] = a.v[k] > b.v[k] ? -1 : 0;
  }
#endif
  return r;
}

/// mask ? a : b per lane (mask lanes must be all-ones or all-zeros).
[[nodiscard]] CSPLS_SIMD_INLINE i32x8 select(const i32x8& mask, const i32x8& a,
                                  const i32x8& b) noexcept {
  return (mask & a) | (~mask & b);
}

/// True when any lane is non-zero (mask reduce).
[[nodiscard]] CSPLS_SIMD_INLINE bool any(const i32x8& m) noexcept {
  std::int32_t acc = 0;
  for (std::size_t k = 0; k < i32x8::kLanes; ++k) acc |= m.v[k];
  return acc != 0;
}

// --- i64x4: four 64-bit lanes (csp::Cost width) ---------------------------

struct i64x4 {
  static constexpr std::size_t kLanes = 4;
#if CSPLS_SIMD_VECTOR_EXT
  using native = std::int64_t __attribute__((vector_size(32)));
  native v;
#else
  std::int64_t v[kLanes];
#endif

  [[nodiscard]] CSPLS_SIMD_INLINE static i64x4 load(
      const std::int64_t* p) noexcept {
    i64x4 r;
    std::memcpy(&r.v, p, sizeof(r.v));
    return r;
  }

  CSPLS_SIMD_INLINE void store(std::int64_t* p) const noexcept {
    std::memcpy(p, &v, sizeof(v));
  }

  [[nodiscard]] CSPLS_SIMD_INLINE static i64x4 broadcast(
      std::int64_t s) noexcept {
    i64x4 r;
#if CSPLS_SIMD_VECTOR_EXT
    r.v = native{s, s, s, s};
#else
    for (std::size_t k = 0; k < kLanes; ++k) r.v[k] = s;
#endif
    return r;
  }

  /// Widening load of four 32-bit ints (board values, sums) into Cost lanes.
  [[nodiscard]] CSPLS_SIMD_INLINE static i64x4 load_i32(
      const std::int32_t* p) noexcept {
    i64x4 r;
#if CSPLS_SIMD_VECTOR_EXT
    std::int32_t __attribute__((vector_size(16))) half;
    std::memcpy(&half, p, sizeof(half));
    r.v = __builtin_convertvector(half, native);
#else
    for (std::size_t k = 0; k < kLanes; ++k) r.v[k] = p[k];
#endif
    return r;
  }

  /// {first, first+1, first+2, first+3}.
  [[nodiscard]] CSPLS_SIMD_INLINE static i64x4 iota(
      std::int64_t first) noexcept {
#if CSPLS_SIMD_VECTOR_EXT
    i64x4 r;
    r.v = native{0, 1, 2, 3};
    return r + broadcast(first);
#else
    i64x4 r;
    for (std::size_t k = 0; k < kLanes; ++k) {
      r.v[k] = first + static_cast<std::int64_t>(k);
    }
    return r;
#endif
  }

  [[nodiscard]] CSPLS_SIMD_INLINE std::int64_t lane(
      std::size_t k) const noexcept {
    return v[k];
  }

  CSPLS_SIMD_INLINE friend i64x4 operator+(
      const i64x4& a, const i64x4& b) noexcept {
    i64x4 r;
#if CSPLS_SIMD_VECTOR_EXT
    r.v = a.v + b.v;
#else
    for (std::size_t k = 0; k < kLanes; ++k) r.v[k] = a.v[k] + b.v[k];
#endif
    return r;
  }

  CSPLS_SIMD_INLINE friend i64x4 operator-(
      const i64x4& a, const i64x4& b) noexcept {
    i64x4 r;
#if CSPLS_SIMD_VECTOR_EXT
    r.v = a.v - b.v;
#else
    for (std::size_t k = 0; k < kLanes; ++k) r.v[k] = a.v[k] - b.v[k];
#endif
    return r;
  }

  CSPLS_SIMD_INLINE friend i64x4 operator&(
      const i64x4& a, const i64x4& b) noexcept {
    i64x4 r;
#if CSPLS_SIMD_VECTOR_EXT
    r.v = a.v & b.v;
#else
    for (std::size_t k = 0; k < kLanes; ++k) r.v[k] = a.v[k] & b.v[k];
#endif
    return r;
  }

  CSPLS_SIMD_INLINE friend i64x4 operator|(
      const i64x4& a, const i64x4& b) noexcept {
    i64x4 r;
#if CSPLS_SIMD_VECTOR_EXT
    r.v = a.v | b.v;
#else
    for (std::size_t k = 0; k < kLanes; ++k) r.v[k] = a.v[k] | b.v[k];
#endif
    return r;
  }

  CSPLS_SIMD_INLINE friend i64x4 operator^(
      const i64x4& a, const i64x4& b) noexcept {
    i64x4 r;
#if CSPLS_SIMD_VECTOR_EXT
    r.v = a.v ^ b.v;
#else
    for (std::size_t k = 0; k < kLanes; ++k) r.v[k] = a.v[k] ^ b.v[k];
#endif
    return r;
  }

  [[nodiscard]] CSPLS_SIMD_INLINE friend i64x4 operator~(
      const i64x4& a) noexcept {
    return a ^ broadcast(-1);
  }
};

[[nodiscard]] CSPLS_SIMD_INLINE i64x4 abs(const i64x4& a) noexcept {
  i64x4 r;
#if CSPLS_SIMD_VECTOR_EXT
  const i64x4::native m = a.v >> 63;
  r.v = (a.v ^ m) - m;
#else
  for (std::size_t k = 0; k < i64x4::kLanes; ++k) {
    const std::int64_t m = a.v[k] >> 63;
    r.v[k] = (a.v[k] ^ m) - m;
  }
#endif
  return r;
}

[[nodiscard]] CSPLS_SIMD_INLINE i64x4 min(
    const i64x4& a, const i64x4& b) noexcept {
  i64x4 r;
#if CSPLS_SIMD_VECTOR_EXT
  const i64x4::native m = a.v < b.v;
  r.v = (m & a.v) | (~m & b.v);
#else
  for (std::size_t k = 0; k < i64x4::kLanes; ++k) {
    r.v[k] = a.v[k] < b.v[k] ? a.v[k] : b.v[k];
  }
#endif
  return r;
}

[[nodiscard]] CSPLS_SIMD_INLINE i64x4 cmp_eq(
    const i64x4& a, const i64x4& b) noexcept {
  i64x4 r;
#if CSPLS_SIMD_VECTOR_EXT
  r.v = a.v == b.v;
#else
  for (std::size_t k = 0; k < i64x4::kLanes; ++k) {
    r.v[k] = a.v[k] == b.v[k] ? -1 : 0;
  }
#endif
  return r;
}

[[nodiscard]] CSPLS_SIMD_INLINE i64x4 cmp_le(
    const i64x4& a, const i64x4& b) noexcept {
  i64x4 r;
#if CSPLS_SIMD_VECTOR_EXT
  r.v = a.v <= b.v;
#else
  for (std::size_t k = 0; k < i64x4::kLanes; ++k) {
    r.v[k] = a.v[k] <= b.v[k] ? -1 : 0;
  }
#endif
  return r;
}

[[nodiscard]] CSPLS_SIMD_INLINE i64x4 cmp_ge(
    const i64x4& a, const i64x4& b) noexcept {
  i64x4 r;
#if CSPLS_SIMD_VECTOR_EXT
  r.v = a.v >= b.v;
#else
  for (std::size_t k = 0; k < i64x4::kLanes; ++k) {
    r.v[k] = a.v[k] >= b.v[k] ? -1 : 0;
  }
#endif
  return r;
}

[[nodiscard]] CSPLS_SIMD_INLINE i64x4 select(const i64x4& mask, const i64x4& a,
                                  const i64x4& b) noexcept {
  return (mask & a) | (~mask & b);
}

[[nodiscard]] CSPLS_SIMD_INLINE bool any(const i64x4& m) noexcept {
  std::int64_t acc = 0;
  for (std::size_t k = 0; k < i64x4::kLanes; ++k) acc |= m.v[k];
  return acc != 0;
}

/// Widen the low/high four i32 lanes into Cost lanes.
CSPLS_SIMD_INLINE void widen(const i32x8& a, i64x4& lo, i64x4& hi) noexcept {
#if CSPLS_SIMD_VECTOR_EXT
  using half_t = std::int32_t __attribute__((vector_size(16)));
  const half_t lo_half =
      __builtin_shufflevector(a.v, a.v, 0, 1, 2, 3);
  const half_t hi_half =
      __builtin_shufflevector(a.v, a.v, 4, 5, 6, 7);
  lo.v = __builtin_convertvector(lo_half, i64x4::native);
  hi.v = __builtin_convertvector(hi_half, i64x4::native);
#else
  for (std::size_t k = 0; k < i64x4::kLanes; ++k) {
    lo.v[k] = a.v[k];
    hi.v[k] = a.v[k + 4];
  }
#endif
}

}  // namespace cspls::util::simd
