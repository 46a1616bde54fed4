#include "problems/queens.hpp"

#include <numeric>
#include <sstream>
#include <stdexcept>

#include "util/simd.hpp"

namespace cspls::problems {

using csp::Cost;
namespace simd = util::simd;

namespace {
std::vector<int> canonical_values(std::size_t n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}
}  // namespace

Queens::Queens(std::size_t n)
    : PermutationProblem(canonical_values(n)),
      n_(n),
      up_(2 * n - 1, 0),
      down_(2 * n - 1, 0) {
  if (n < 1) {
    throw std::invalid_argument("Queens: n must be >= 1");
  }
}

const std::string& Queens::name() const noexcept { return name_; }

std::string Queens::instance_description() const {
  std::ostringstream os;
  os << "queens n=" << n_;
  return os.str();
}

std::unique_ptr<csp::Problem> Queens::clone() const {
  return std::make_unique<Queens>(*this);
}

Cost Queens::bump(std::size_t col, int row, int step) const {
  Cost delta = 0;
  int& u = up_[up_slot(col, row)];
  int& d = down_[down_slot(col, row)];
  if (step > 0) {
    if (u++ >= 1) ++delta;
    if (d++ >= 1) ++delta;
  } else {
    if (--u >= 1) --delta;
    if (--d >= 1) --delta;
  }
  return delta;
}

Cost Queens::on_rebind() {
  std::fill(up_.begin(), up_.end(), 0);
  std::fill(down_.begin(), down_.end(), 0);
  Cost cost = 0;
  for (std::size_t col = 0; col < n_; ++col) {
    cost += bump(col, value(col), +1);
  }
  return cost;
}

Cost Queens::full_cost() const {
  std::vector<int> up(2 * n_ - 1, 0);
  std::vector<int> down(2 * n_ - 1, 0);
  Cost cost = 0;
  for (std::size_t col = 0; col < n_; ++col) {
    const int row = value(col);
    if (up[up_slot(col, row)]++ >= 1) ++cost;
    if (down[down_slot(col, row)]++ >= 1) ++cost;
  }
  return cost;
}

Cost Queens::cost_on_variable(std::size_t i) const {
  const int row = value(i);
  const int u = up_[up_slot(i, row)];
  const int d = down_[down_slot(i, row)];
  return (u >= 2 ? u - 1 : 0) + (d >= 2 ? d - 1 : 0);
}

Cost Queens::cost_if_swap(std::size_t i, std::size_t j) const {
  Cost delta = 0;
  delta += bump(i, value(i), -1);
  delta += bump(j, value(j), -1);
  delta += bump(i, value(j), +1);
  delta += bump(j, value(i), +1);
  const Cost result = total_cost() + delta;
  (void)bump(i, value(j), -1);
  (void)bump(j, value(i), -1);
  (void)bump(i, value(i), +1);
  (void)bump(j, value(j), +1);
  return result;
}

Cost Queens::did_swap(std::size_t i, std::size_t j) {
  // values() are post-swap: the queen that *was* in column i now shows as
  // value(j) and vice versa.
  Cost delta = 0;
  delta += bump(i, value(j), -1);  // retract old placement of column i
  delta += bump(j, value(i), -1);  // retract old placement of column j
  delta += bump(i, value(i), +1);
  delta += bump(j, value(j), +1);
  return total_cost() + delta;
}

CSPLS_SIMD_CLONES std::size_t Queens::cost_on_all_variables_simd(
    std::span<Cost> out) const {
  // Eight columns per step: both diagonal slots are affine in (row, col),
  // so the only non-contiguous accesses are the two occupation gathers.
  constexpr std::size_t kL = simd::i32x8::kLanes;
  const auto vals = values();
  const auto one = simd::i32x8::broadcast(1);
  const auto two = simd::i32x8::broadcast(2);
  const auto n1b = simd::i32x8::broadcast(static_cast<int>(n_) - 1);
  std::size_t i = 0;
  for (; i + kL <= n_; i += kL) {
    const auto rv = simd::i32x8::load(vals.data() + i);
    const auto iv = simd::i32x8::iota(static_cast<int>(i));
    const auto u = simd::i32x8::gather(up_.data(), rv + iv);
    const auto d = simd::i32x8::gather(down_.data(), (rv - iv) + n1b);
    const auto s = ((u - one) & simd::cmp_ge(u, two)) +
                   ((d - one) & simd::cmp_ge(d, two));
    simd::i64x4 slo, shi;
    simd::widen(s, slo, shi);
    slo.store(out.data() + i);
    shi.store(out.data() + i + simd::i64x4::kLanes);
  }
  return i;
}

void Queens::cost_on_all_variables(std::span<Cost> out) const {
  const auto vals = values();
  std::size_t i = simd::runtime_enabled() ? cost_on_all_variables_simd(out) : 0;
  for (; i < n_; ++i) {
    const int row = vals[i];
    const int u = up_[up_slot(i, row)];
    const int d = down_[down_slot(i, row)];
    out[i] = (u >= 2 ? u - 1 : 0) + (d >= 2 ? d - 1 : 0);
  }
}

namespace {

/// Surplus change of removing one occupant from diagonals a and b (possibly
/// the same) — closed form of the bump/rollback dance, no writes.
inline Cost remove_two(const std::vector<int>& occ, std::size_t a,
                       std::size_t b) noexcept {
  if (a == b) {
    const int c = occ[a];
    return c >= 3 ? -2 : (c == 2 ? -1 : 0);
  }
  return (occ[a] >= 2 ? Cost{-1} : Cost{0}) +
         (occ[b] >= 2 ? Cost{-1} : Cost{0});
}

/// Surplus change of adding one occupant to diagonals a and b (possibly the
/// same).  Addition slots are always disjoint from the removal slots of the
/// same candidate (coincidence would force equal rows or columns), so the
/// two closed forms compose without interference.
inline Cost add_two(const std::vector<int>& occ, std::size_t a,
                    std::size_t b) noexcept {
  if (a == b) {
    return occ[a] >= 1 ? Cost{2} : Cost{1};
  }
  return (occ[a] >= 1 ? Cost{1} : Cost{0}) +
         (occ[b] >= 1 ? Cost{1} : Cost{0});
}

}  // namespace

CSPLS_SIMD_CLONES std::uint64_t Queens::best_swap_for_simd(
    std::size_t x, util::Xoshiro256& rng, std::size_t& best_j,
    Cost& best_cost, std::size_t& ties) const {
  const auto vals = values();
  const Cost total = total_cost();
  const int rx = vals[x];
  const std::size_t ux = up_slot(x, rx);
  const std::size_t dx = down_slot(x, rx);
  // Vector closed forms, eight candidates per step.  remove/add slot
  // coincidence (the a == b cases above) collapses to one vector equality
  // mask and a select; the x-side occupation reads are lane-constant, so
  // their contributions are hoisted to scalar broadcasts and each lane block
  // performs six occupation gathers total.  The reservoir is fused into the
  // compute loop: each half-block of costs is tested against the incumbent
  // best while still in registers, and only a half that could improve or tie
  // replays the scalar cascade — draw-for-draw what SwapScan::feed_lanes
  // does, without staging candidates through a side buffer first.  The lane
  // holding j == x computes a garbage cost; the replay skips it, and a
  // garbage lane can at worst trigger a replay whose real lanes are all
  // strictly worse, which consumes no RNG either way.
  constexpr std::size_t kL = simd::i32x8::kLanes;
  const int u_x = up_[ux];
  const int d_x = down_[dx];
  const auto rm_eq_u =
      simd::i32x8::broadcast(u_x >= 3 ? -2 : (u_x == 2 ? -1 : 0));
  const auto rm_eq_d =
      simd::i32x8::broadcast(d_x >= 3 ? -2 : (d_x == 2 ? -1 : 0));
  const auto rm_ne_u = simd::i32x8::broadcast(u_x >= 2 ? -1 : 0);
  const auto rm_ne_d = simd::i32x8::broadcast(d_x >= 2 ? -1 : 0);
  const auto zero = simd::i32x8::broadcast(0);
  const auto one = simd::i32x8::broadcast(1);
  const auto two = simd::i32x8::broadcast(2);
  const auto uxb = simd::i32x8::broadcast(static_cast<int>(ux));
  const auto dxb = simd::i32x8::broadcast(static_cast<int>(dx));
  const auto xb = simd::i32x8::broadcast(static_cast<int>(x));
  const auto rxb = simd::i32x8::broadcast(rx);
  const auto n1b = simd::i32x8::broadcast(static_cast<int>(n_) - 1);
  const auto totalb = simd::i64x4::broadcast(total);
  csp::SwapScan scan(n_);
  Cost incumbent = scan.best_cost;
  auto bestv = simd::i64x4::broadcast(incumbent);
  constexpr std::size_t kHalf = simd::i64x4::kLanes;
  std::size_t j = 0;
  for (; j + kL <= n_; j += kL) {
    const auto rj = simd::i32x8::load(vals.data() + j);
    const auto jv = simd::i32x8::iota(static_cast<int>(j));
    const auto ujj = rj + jv;               // up slot of candidate queen
    const auto uxr = rj + xb;               // up slot of x holding row rj
    const auto ujx = jv + rxb;              // up slot of j holding row rx
    const auto djj = (rj - jv) + n1b;       // down slots, same roles
    const auto dxr = (rj - xb) + n1b;
    const auto djx = (rxb - jv) + n1b;
    const auto rem_u =
        simd::select(simd::cmp_eq(ujj, uxb), rm_eq_u,
                     rm_ne_u + simd::cmp_ge(
                                   simd::i32x8::gather(up_.data(), ujj), two));
    const auto rem_d =
        simd::select(simd::cmp_eq(djj, dxb), rm_eq_d,
                     rm_ne_d + simd::cmp_ge(
                                   simd::i32x8::gather(down_.data(), djj),
                                   two));
    const auto cu1 =
        simd::cmp_ge(simd::i32x8::gather(up_.data(), uxr), one);
    const auto cu2 =
        simd::cmp_ge(simd::i32x8::gather(up_.data(), ujx), one);
    const auto add_u = simd::select(simd::cmp_eq(uxr, ujx), one - cu1,
                                    (zero - cu1) - cu2);
    const auto cd1 =
        simd::cmp_ge(simd::i32x8::gather(down_.data(), dxr), one);
    const auto cd2 =
        simd::cmp_ge(simd::i32x8::gather(down_.data(), djx), one);
    const auto add_d = simd::select(simd::cmp_eq(dxr, djx), one - cd1,
                                    (zero - cd1) - cd2);
    const auto delta = ((rem_u + add_u) + (rem_d + add_d));
    simd::i64x4 half[2];
    simd::widen(delta, half[0], half[1]);
    for (std::size_t h = 0; h < 2; ++h) {
      const auto costs = totalb + half[h];
      if (!simd::any(simd::cmp_le(costs, bestv))) continue;
      Cost block[kHalf];
      costs.store(block);
      for (std::size_t t = 0; t < kHalf; ++t) {
        const std::size_t cj = j + h * kHalf + t;
        if (cj == x) continue;
        scan.consider(cj, block[t], rng);
      }
      if (scan.best_cost != incumbent) {
        incumbent = scan.best_cost;
        bestv = simd::i64x4::broadcast(incumbent);
      }
    }
  }
  for (; j < n_; ++j) {
    if (j == x) continue;
    const int rj = vals[j];
    scan.consider(j,
                  total + remove_two(up_, ux, up_slot(j, rj)) +
                      add_two(up_, up_slot(x, rj), up_slot(j, rx)) +
                      remove_two(down_, dx, down_slot(j, rj)) +
                      add_two(down_, down_slot(x, rj), down_slot(j, rx)),
                  rng);
  }
  best_j = scan.best_j;
  best_cost = scan.best_cost;
  ties = scan.ties;
  return n_ - 1;
}

std::uint64_t Queens::best_swap_for(std::size_t x, util::Xoshiro256& rng,
                                    std::size_t& best_j, Cost& best_cost,
                                    std::size_t& ties) const {
  if (simd::runtime_enabled()) {
    return best_swap_for_simd(x, rng, best_j, best_cost, ties);
  }
  const auto vals = values();
  const Cost total = total_cost();
  const int rx = vals[x];
  const std::size_t ux = up_slot(x, rx);
  const std::size_t dx = down_slot(x, rx);
  csp::SwapScan scan(n_);
  for (std::size_t j = 0; j < n_; ++j) {
    if (j == x) continue;
    const int rj = vals[j];
    const Cost delta =
        remove_two(up_, ux, up_slot(j, rj)) +
        add_two(up_, up_slot(x, rj), up_slot(j, rx)) +
        remove_two(down_, dx, down_slot(j, rj)) +
        add_two(down_, down_slot(x, rj), down_slot(j, rx));
    scan.consider(j, total + delta, rng);
  }
  best_j = scan.best_j;
  best_cost = scan.best_cost;
  ties = scan.ties;
  return n_ - 1;
}

bool Queens::verify(std::span<const int> vals) const {
  if (vals.size() != n_) return false;
  if (!csp::is_permutation_of(vals, canonical_values(n_))) return false;
  for (std::size_t a = 0; a < n_; ++a) {
    for (std::size_t b = a + 1; b < n_; ++b) {
      const auto col_gap = static_cast<int>(b - a);
      const int row_gap = vals[b] - vals[a];
      if (row_gap == col_gap || row_gap == -col_gap) return false;
    }
  }
  return true;
}

csp::TuningHints Queens::tuning() const noexcept {
  csp::TuningHints hints;
  hints.freeze_loc_min = 1;
  hints.freeze_swap = 0;
  hints.reset_limit =
      static_cast<std::uint32_t>(std::max<std::size_t>(2, n_ / 10));
  hints.reset_fraction = 0.1;
  hints.restart_limit = static_cast<std::uint64_t>(n_) * 500;
  hints.prob_accept_local_min = 0.0;
  return hints;
}

}  // namespace cspls::problems
