// The portable SIMD lane layer (util/simd.hpp) and the batched reservoir
// step SwapScan::feed_lanes.  Every lane primitive is checked against a
// plain scalar reference on randomized inputs, and feed_lanes is checked
// draw-for-draw (same winner, same tie count, same RNG stream position)
// against the historical per-candidate consider() loop — under both runtime
// tiers, so the scalar fallback is exercised even in SIMD builds.
#include "util/simd.hpp"

#include <array>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "csp/problem.hpp"
#include "util/rng.hpp"

namespace simd = cspls::util::simd;
using cspls::csp::Cost;
using cspls::csp::kInfiniteCost;
using cspls::csp::SwapScan;
using cspls::util::Xoshiro256;

namespace {

std::array<std::int32_t, 8> lanes_of(const simd::i32x8& a) {
  std::array<std::int32_t, 8> out{};
  a.store(out.data());
  return out;
}

std::array<std::int64_t, 4> lanes_of(const simd::i64x4& a) {
  std::array<std::int64_t, 4> out{};
  a.store(out.data());
  return out;
}

TEST(SimdUtil, PaddedSize) {
  EXPECT_EQ(simd::padded_size(0, 8), 0u);
  EXPECT_EQ(simd::padded_size(1, 8), 8u);
  EXPECT_EQ(simd::padded_size(8, 8), 8u);
  EXPECT_EQ(simd::padded_size(9, 8), 16u);
  EXPECT_EQ(simd::padded_size(13, 4), 16u);
}

TEST(SimdUtil, RuntimeTierToggle) {
  // Whatever the build tier, force-scalar must win; and releasing it must
  // restore the one-shot build/env decision.
  const bool initial = simd::runtime_enabled();
  simd::set_force_scalar(true);
  EXPECT_FALSE(simd::runtime_enabled());
  EXPECT_STREQ(simd::tier_name(), "scalar(forced)");
  simd::set_force_scalar(false);
  EXPECT_EQ(simd::runtime_enabled(), initial);
  if (!simd::compiled_with_vectors()) {
    EXPECT_FALSE(simd::runtime_enabled());
  }
}

// tier_name() names the code that runs, not the CPU's best feature: in a
// cloned build the resolver's pick from {avx2, default}.
TEST(SimdUtil, TierNameIsTheDispatchedClone) {
  simd::set_force_scalar(false);
  if (!simd::runtime_enabled()) {
    EXPECT_STREQ(simd::tier_name(), "scalar");
    return;
  }
#if CSPLS_SIMD_CLONED
  __builtin_cpu_init();
  EXPECT_STREQ(simd::tier_name(), __builtin_cpu_supports("avx2")
                                      ? "vector-ext[avx2]"
                                      : "vector-ext[sse2]");
#elif defined(CSPLS_NATIVE)
  EXPECT_STREQ(simd::tier_name(), "vector-ext[native]");
#else
  EXPECT_STREQ(simd::tier_name(), "vector-ext");
#endif
}

TEST(SimdI32, LoadStoreBroadcastIota) {
  const std::int32_t src[8] = {1, -2, 3, -4, 5, -6, 7, -8};
  const auto a = simd::i32x8::load(src);
  for (std::size_t k = 0; k < 8; ++k) EXPECT_EQ(a.lane(k), src[k]);

  const auto b = simd::i32x8::broadcast(-42);
  for (std::size_t k = 0; k < 8; ++k) EXPECT_EQ(b.lane(k), -42);

  const auto i = simd::i32x8::iota(-3);
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(i.lane(k), -3 + static_cast<std::int32_t>(k));
  }
}

TEST(SimdI32, ArithmeticMatchesScalarReference) {
  Xoshiro256 rng(0xA11CE);
  for (int round = 0; round < 200; ++round) {
    std::int32_t xs[8];
    std::int32_t ys[8];
    for (auto& x : xs) x = static_cast<std::int32_t>(rng.next()) % 1000;
    for (auto& y : ys) y = static_cast<std::int32_t>(rng.next()) % 1000;
    const auto a = simd::i32x8::load(xs);
    const auto b = simd::i32x8::load(ys);
    const auto sum = lanes_of(a + b);
    const auto diff = lanes_of(a - b);
    const auto mn = lanes_of(simd::min(a, b));
    const auto ab = lanes_of(simd::abs(a));
    const auto ge = lanes_of(simd::cmp_ge(a, b));
    const auto gt = lanes_of(simd::cmp_gt(a, b));
    const auto eq = lanes_of(simd::cmp_eq(a, b));
    const auto sel = lanes_of(simd::select(simd::cmp_ge(a, b), a, b));
    for (std::size_t k = 0; k < 8; ++k) {
      EXPECT_EQ(sum[k], xs[k] + ys[k]);
      EXPECT_EQ(diff[k], xs[k] - ys[k]);
      EXPECT_EQ(mn[k], std::min(xs[k], ys[k]));
      EXPECT_EQ(ab[k], xs[k] < 0 ? -xs[k] : xs[k]);
      EXPECT_EQ(ge[k], xs[k] >= ys[k] ? -1 : 0);
      EXPECT_EQ(gt[k], xs[k] > ys[k] ? -1 : 0);
      EXPECT_EQ(eq[k], xs[k] == ys[k] ? -1 : 0);
      EXPECT_EQ(sel[k], std::max(xs[k], ys[k]));
    }
  }
}

TEST(SimdI32, MaskCountingComposesAsLaneArithmetic) {
  // acc - cmp adds one per true lane; acc + cmp subtracts one — the shape
  // every kernel's surplus fold relies on.
  const std::int32_t xs[8] = {5, 1, 3, 3, 0, 7, 2, 3};
  const auto a = simd::i32x8::load(xs);
  const auto three = simd::i32x8::broadcast(3);
  auto acc = simd::i32x8::broadcast(10);
  acc = acc - simd::cmp_eq(a, three);  // +1 where lane == 3
  acc = acc + simd::cmp_gt(a, three);  // -1 where lane > 3
  const auto got = lanes_of(acc);
  const std::int32_t want[8] = {9, 10, 11, 11, 10, 9, 10, 11};
  for (std::size_t k = 0; k < 8; ++k) EXPECT_EQ(got[k], want[k]);
}

TEST(SimdI32, GatherAcceptsNegativeIndices) {
  // Kernels gather occurrence rows through a pointer aimed mid-table, so
  // index lanes are signed.  A sign-extension bug would read far away.
  std::vector<std::int32_t> table(21);
  for (int i = 0; i < 21; ++i) table[static_cast<std::size_t>(i)] = 100 + i;
  const std::int32_t* centre = table.data() + 10;
  const std::int32_t idx[8] = {-10, -7, -1, 0, 1, 5, 9, 10};
  const auto got = lanes_of(simd::i32x8::gather(centre, simd::i32x8::load(idx)));
  for (std::size_t k = 0; k < 8; ++k) EXPECT_EQ(got[k], 110 + idx[k]);
}

TEST(SimdI32, AnyDetectsSingleLane) {
  std::int32_t xs[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_FALSE(simd::any(simd::i32x8::load(xs)));
  for (std::size_t k = 0; k < 8; ++k) {
    std::int32_t ys[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    ys[k] = -1;
    EXPECT_TRUE(simd::any(simd::i32x8::load(ys)));
  }
}

TEST(SimdI64, ArithmeticMatchesScalarReference) {
  Xoshiro256 rng(0xB0B);
  for (int round = 0; round < 200; ++round) {
    std::int64_t xs[4];
    std::int64_t ys[4];
    for (auto& x : xs) x = static_cast<std::int64_t>(rng.next() >> 20) - (1 << 22);
    for (auto& y : ys) y = static_cast<std::int64_t>(rng.next() >> 20) - (1 << 22);
    const auto a = simd::i64x4::load(xs);
    const auto b = simd::i64x4::load(ys);
    const auto sum = lanes_of(a + b);
    const auto diff = lanes_of(a - b);
    const auto mn = lanes_of(simd::min(a, b));
    const auto ab = lanes_of(simd::abs(a));
    const auto le = lanes_of(simd::cmp_le(a, b));
    const auto ge = lanes_of(simd::cmp_ge(a, b));
    const auto eq = lanes_of(simd::cmp_eq(a, b));
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_EQ(sum[k], xs[k] + ys[k]);
      EXPECT_EQ(diff[k], xs[k] - ys[k]);
      EXPECT_EQ(mn[k], std::min(xs[k], ys[k]));
      EXPECT_EQ(ab[k], xs[k] < 0 ? -xs[k] : xs[k]);
      EXPECT_EQ(le[k], xs[k] <= ys[k] ? -1 : 0);
      EXPECT_EQ(ge[k], xs[k] >= ys[k] ? -1 : 0);
      EXPECT_EQ(eq[k], xs[k] == ys[k] ? -1 : 0);
    }
  }
}

TEST(SimdI64, WidenAndLoadI32) {
  const std::int32_t src[8] = {-5, 4, -3, 2, -1, 0, 7, -8};
  const auto a = simd::i32x8::load(src);
  simd::i64x4 lo;
  simd::i64x4 hi;
  simd::widen(a, lo, hi);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(lo.lane(k), src[k]);
    EXPECT_EQ(hi.lane(k), src[k + 4]);
  }
  const auto w = simd::i64x4::load_i32(src + 2);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_EQ(w.lane(k), src[k + 2]);
}

// --- feed_lanes vs the historical consider() loop --------------------------

struct ScanResult {
  std::size_t best_j;
  Cost best_cost;
  std::size_t ties;
  std::array<std::uint64_t, 4> rng_state;
};

ScanResult run_consider(std::size_t n, std::span<const Cost> cand,
                        std::size_t skip, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  SwapScan scan(n);
  for (std::size_t j = 0; j < cand.size(); ++j) {
    if (j == skip) continue;
    scan.consider(j, cand[j], rng);
  }
  return {scan.best_j, scan.best_cost, scan.ties, rng.state()};
}

ScanResult run_feed_lanes(std::size_t n, std::span<const Cost> cand,
                          std::size_t skip, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  SwapScan scan(n);
  scan.feed_lanes(0, cand, skip, rng);
  return {scan.best_j, scan.best_cost, scan.ties, rng.state()};
}

void expect_same_scan(std::size_t n, std::span<const Cost> cand,
                      std::size_t skip, std::uint64_t seed) {
  const auto want = run_consider(n, cand, skip, seed);
  for (const bool force : {false, true}) {
    simd::set_force_scalar(force);
    const auto got = run_feed_lanes(n, cand, skip, seed);
    EXPECT_EQ(got.best_j, want.best_j) << "force_scalar=" << force;
    EXPECT_EQ(got.best_cost, want.best_cost) << "force_scalar=" << force;
    EXPECT_EQ(got.ties, want.ties) << "force_scalar=" << force;
    EXPECT_EQ(got.rng_state, want.rng_state)
        << "RNG stream diverged, force_scalar=" << force;
  }
  simd::set_force_scalar(false);
}

TEST(FeedLanes, MatchesConsiderOnRandomCandidates) {
  Xoshiro256 rng(0xFEED);
  // Odd sizes straddle lane boundaries; small cost ranges force heavy ties.
  for (const std::size_t n : {1u, 3u, 4u, 5u, 7u, 8u, 9u, 13u, 31u, 64u}) {
    for (int round = 0; round < 50; ++round) {
      std::vector<Cost> cand(n);
      for (auto& c : cand) {
        c = static_cast<Cost>(rng.below(round % 2 ? 3 : 1000));
      }
      const std::size_t skip = rng.below(n + 1);  // n == skip nothing
      if (skip < n) cand[skip] = kInfiniteCost;
      expect_same_scan(n, cand, skip, 0x5EED + static_cast<std::uint64_t>(round));
    }
  }
}

TEST(FeedLanes, SkippedSentinelDoesNotTieAgainstInfiniteBest) {
  // All real candidates worse than nothing: best stays kInfiniteCost only if
  // every candidate is the sentinel.  With skip passed correctly, the
  // sentinel at `skip` must not tie with the initial best and must consume
  // zero RNG draws.
  const std::size_t n = 9;
  std::vector<Cost> cand(n, kInfiniteCost);
  const std::size_t skip = 4;
  for (const bool force : {false, true}) {
    simd::set_force_scalar(force);
    Xoshiro256 rng(123);
    const auto before = rng.state();
    SwapScan scan(n);
    scan.feed_lanes(0, cand, skip, rng);
    // The eight non-skipped sentinels do tie among themselves (matching the
    // scalar loop); replaying consider() must agree exactly.
    const auto want = run_consider(n, cand, skip, 123);
    EXPECT_EQ(scan.best_j, want.best_j);
    EXPECT_EQ(scan.best_cost, want.best_cost);
    EXPECT_EQ(scan.ties, want.ties);
    EXPECT_EQ(rng.state(), want.rng_state);
    (void)before;
  }
  simd::set_force_scalar(false);
}

TEST(FeedLanes, BaseOffsetAddressesCandidatesCorrectly) {
  // Feeding a window starting at base_j must report absolute indices.
  const std::size_t n = 20;
  std::vector<Cost> cand(8, 100);
  cand[5] = 1;  // absolute candidate 12 + 5 ... base 7 => j = 12
  Xoshiro256 rng(7);
  SwapScan scan(n);
  scan.feed_lanes(7, std::span<const Cost>(cand), n, rng);
  EXPECT_EQ(scan.best_j, 12u);
  EXPECT_EQ(scan.best_cost, 1);
  EXPECT_EQ(scan.ties, 1u);
}

}  // namespace
