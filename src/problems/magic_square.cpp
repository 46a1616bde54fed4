#include "problems/magic_square.hpp"

#include <numeric>
#include <sstream>
#include <stdexcept>

#include "util/simd.hpp"

namespace cspls::problems {

using csp::Cost;
namespace simd = util::simd;

namespace {
std::vector<int> canonical_values(std::size_t n) {
  std::vector<int> v(n * n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}
}  // namespace

MagicSquare::MagicSquare(std::size_t n)
    : PermutationProblem(canonical_values(n)),
      n_(n),
      magic_(static_cast<Cost>(n) * (static_cast<Cost>(n) * static_cast<Cost>(n) + 1) / 2),
      sums_(2 * n + 2, 0),
      line_err_(2 * n + 2, 0),
      cand_(n * n, 0) {
  if (n < 3) {
    throw std::invalid_argument("MagicSquare: n must be >= 3");
  }
}

const std::string& MagicSquare::name() const noexcept { return name_; }

std::string MagicSquare::instance_description() const {
  std::ostringstream os;
  os << "magic-square " << n_ << "x" << n_ << " (M=" << magic_ << ")";
  return os.str();
}

std::unique_ptr<csp::Problem> MagicSquare::clone() const {
  return std::make_unique<MagicSquare>(*this);
}

Cost MagicSquare::on_rebind() {
  std::fill(sums_.begin(), sums_.end(), Cost{0});
  const auto vals = values();
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      const Cost v = vals[i * n_ + j];
      sums_[i] += v;
      sums_[n_ + j] += v;
      if (i == j) sums_[2 * n_] += v;
      if (i + j == n_ - 1) sums_[2 * n_ + 1] += v;
    }
  }
  err_sum_ = 0;
  for (std::size_t line = 0; line < sums_.size(); ++line) {
    const Cost d = sums_[line] - magic_;
    line_err_[line] = d < 0 ? -d : d;
    err_sum_ += line_err_[line];
  }
  return err_sum_;
}

Cost MagicSquare::full_cost() const {
  // Independent of the cached sums: recompute from the raw values.
  std::vector<Cost> sums(2 * n_ + 2, 0);
  const auto vals = values();
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      const Cost v = vals[i * n_ + j];
      sums[i] += v;
      sums[n_ + j] += v;
      if (i == j) sums[2 * n_] += v;
      if (i + j == n_ - 1) sums[2 * n_ + 1] += v;
    }
  }
  Cost cost = 0;
  for (const Cost s : sums) {
    const Cost d = s - magic_;
    cost += d < 0 ? -d : d;
  }
  return cost;
}

Cost MagicSquare::cost_on_variable(std::size_t k) const {
  const std::size_t i = k / n_;
  const std::size_t j = k % n_;
  Cost err = line_error(i) + line_error(n_ + j);
  if (i == j) err += line_error(2 * n_);
  if (i + j == n_ - 1) err += line_error(2 * n_ + 1);
  return err;
}

Cost MagicSquare::swap_delta(std::size_t a, std::size_t b) const {
  // Cell a receives value(b) and cell b receives value(a):
  // every line through a gains d, every line through b loses d, and a line
  // through both is unchanged.
  const Cost d = static_cast<Cost>(value(b)) - static_cast<Cost>(value(a));
  if (d == 0 || a == b) return 0;
  const std::size_t ia = a / n_, ja = a % n_;
  const std::size_t ib = b / n_, jb = b % n_;

  Cost delta = 0;
  const auto add = [&](std::size_t line, Cost change) {
    delta += line_error_after(line, change);
  };
  if (ia != ib) {
    add(ia, d);
    add(ib, -d);
  }
  if (ja != jb) {
    add(n_ + ja, d);
    add(n_ + jb, -d);
  }
  const bool a_d1 = (ia == ja), b_d1 = (ib == jb);
  if (a_d1 != b_d1) add(2 * n_, a_d1 ? d : -d);
  const bool a_d2 = (ia + ja == n_ - 1), b_d2 = (ib + jb == n_ - 1);
  if (a_d2 != b_d2) add(2 * n_ + 1, a_d2 ? d : -d);
  return delta;
}

Cost MagicSquare::cost_if_swap(std::size_t i, std::size_t j) const {
  return total_cost() + swap_delta(i, j);
}

Cost MagicSquare::did_swap(std::size_t i, std::size_t j) {
  // values() already reflect the swap; sums_ do not yet.  The delta formula
  // needs pre-swap values, and value(i)/value(j) are now exchanged, so the
  // "incoming" value at i is value(i) = old value(j).  Only the <= 6 lines
  // through the two cells move; shift_line keeps the per-line error cache
  // and the running total exact, so the commit is O(1), not O(n).
  const Cost d = static_cast<Cost>(value(i)) - static_cast<Cost>(value(j));
  const std::size_t ia = i / n_, ja = i % n_;
  const std::size_t ib = j / n_, jb = j % n_;
  if (ia != ib) {
    shift_line(ia, d);
    shift_line(ib, -d);
  }
  if (ja != jb) {
    shift_line(n_ + ja, d);
    shift_line(n_ + jb, -d);
  }
  const bool a_d1 = (ia == ja), b_d1 = (ib == jb);
  if (a_d1 != b_d1) shift_line(2 * n_, a_d1 ? d : -d);
  const bool a_d2 = (ia + ja == n_ - 1), b_d2 = (ib + jb == n_ - 1);
  if (a_d2 != b_d2) shift_line(2 * n_ + 1, a_d2 ? d : -d);
  return err_sum_;
}

CSPLS_SIMD_CLONES void MagicSquare::cost_on_all_variables_simd(
    std::span<Cost> out) const {
  // Per row: the column errors are one contiguous Cost load, the row error
  // a broadcast, and the two diagonal patches iota-mask selects — no
  // gathers anywhere on this kernel.
  constexpr std::size_t kL = simd::i64x4::kLanes;
  const Cost d1 = line_err_[2 * n_], d2 = line_err_[2 * n_ + 1];
  const auto d1b = simd::i64x4::broadcast(d1);
  const auto d2b = simd::i64x4::broadcast(d2);
  for (std::size_t i = 0; i < n_; ++i) {
    const auto rowb = simd::i64x4::broadcast(line_err_[i]);
    const auto diagb = simd::i64x4::broadcast(static_cast<std::int64_t>(i));
    const auto antib =
        simd::i64x4::broadcast(static_cast<std::int64_t>(n_ - 1 - i));
    Cost* const row_out = out.data() + i * n_;
    std::size_t j = 0;
    for (; j + kL <= n_; j += kL) {
      const auto jv = simd::i64x4::iota(static_cast<std::int64_t>(j));
      auto err = rowb + simd::i64x4::load(line_err_.data() + n_ + j);
      err = err + (d1b & simd::cmp_eq(jv, diagb));
      err = err + (d2b & simd::cmp_eq(jv, antib));
      err.store(row_out + j);
    }
    for (; j < n_; ++j) {
      Cost err = line_err_[i] + line_err_[n_ + j];
      if (i == j) err += d1;
      if (i + j == n_ - 1) err += d2;
      row_out[j] = err;
    }
  }
}

void MagicSquare::cost_on_all_variables(std::span<Cost> out) const {
  // One pass over the board reading the cached line errors: the bulk scan
  // shares the 2n+2 error lookups across all n^2 cells.
  if (simd::runtime_enabled()) {
    cost_on_all_variables_simd(out);
    return;
  }
  const Cost d1 = line_err_[2 * n_], d2 = line_err_[2 * n_ + 1];
  std::size_t k = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    const Cost row = line_err_[i];
    for (std::size_t j = 0; j < n_; ++j, ++k) {
      Cost err = row + line_err_[n_ + j];
      if (i == j) err += d1;
      if (i + j == n_ - 1) err += d2;
      out[k] = err;
    }
  }
}

CSPLS_SIMD_CLONES std::uint64_t MagicSquare::best_swap_for_simd(
    std::size_t x, util::Xoshiro256& rng, std::size_t& best_j,
    Cost& best_cost, std::size_t& ties) const {
  const std::size_t nn = num_variables();
  const std::size_t ia = x / n_, ja = x % n_;
  const Cost va = value(x);
  const bool a_d1 = (ia == ja), a_d2 = (ia + ja == n_ - 1);
  const Cost total = total_cost();
  const auto vals = values();
  // Vector per-line error recomputation, four candidate cells per step (Cost
  // width: line sums reach n³, past 32-bit comfort at bench sizes).  Within
  // a board row the candidate's row line is constant, the column lines are
  // contiguous loads, and every conditional of the scalar kernel becomes an
  // iota/equality mask: no gathers at all.  The x lane computes d = 0 (delta
  // 0) and is overwritten with the sentinel before the reservoir runs.
  constexpr std::size_t kL = simd::i64x4::kLanes;
  const auto vab = simd::i64x4::broadcast(va);
  const auto totalb = simd::i64x4::broadcast(total);
  const auto zero = simd::i64x4::broadcast(0);
  const auto row_ab = simd::i64x4::broadcast(sums_[ia] - magic_);
  const auto row_ae = simd::i64x4::broadcast(line_err_[ia]);
  const auto col_ab = simd::i64x4::broadcast(sums_[n_ + ja] - magic_);
  const auto col_ae = simd::i64x4::broadcast(line_err_[n_ + ja]);
  const auto diag1b = simd::i64x4::broadcast(sums_[2 * n_] - magic_);
  const auto diag1e = simd::i64x4::broadcast(line_err_[2 * n_]);
  const auto diag2b = simd::i64x4::broadcast(sums_[2 * n_ + 1] - magic_);
  const auto diag2e = simd::i64x4::broadcast(line_err_[2 * n_ + 1]);
  const auto jab = simd::i64x4::broadcast(static_cast<std::int64_t>(ja));
  const auto magicb = simd::i64x4::broadcast(magic_);
  Cost* const cand = cand_.data();
  for (std::size_t ib = 0; ib < n_; ++ib) {
    const bool row_differs = (ia != ib);
    const auto row_bb = simd::i64x4::broadcast(sums_[ib] - magic_);
    const auto row_be = simd::i64x4::broadcast(line_err_[ib]);
    const auto ibb = simd::i64x4::broadcast(static_cast<std::int64_t>(ib));
    const auto antib =
        simd::i64x4::broadcast(static_cast<std::int64_t>(n_ - 1 - ib));
    std::size_t b = ib * n_;
    std::size_t jb = 0;
    for (; jb + kL <= n_; jb += kL, b += kL) {
      const auto dv = simd::i64x4::load_i32(vals.data() + b) - vab;
      const auto jv = simd::i64x4::iota(static_cast<std::int64_t>(jb));
      auto delta = zero;
      if (row_differs) {
        delta = (simd::abs(row_ab + dv) - row_ae) +
                (simd::abs(row_bb - dv) - row_be);
      }
      const auto col_bb = simd::i64x4::load(sums_.data() + n_ + jb) - magicb;
      const auto col_be = simd::i64x4::load(line_err_.data() + n_ + jb);
      const auto col_term = (simd::abs(col_ab + dv) - col_ae) +
                            (simd::abs(col_bb - dv) - col_be);
      delta = delta + (col_term & ~simd::cmp_eq(jv, jab));
      const auto sd1 = a_d1 ? dv : zero - dv;
      const auto b_d1m = simd::cmp_eq(jv, ibb);
      const auto d1m = a_d1 ? ~b_d1m : b_d1m;
      delta = delta + ((simd::abs(diag1b + sd1) - diag1e) & d1m);
      const auto sd2 = a_d2 ? dv : zero - dv;
      const auto b_d2m = simd::cmp_eq(jv, antib);
      const auto d2m = a_d2 ? ~b_d2m : b_d2m;
      delta = delta + ((simd::abs(diag2b + sd2) - diag2e) & d2m);
      (totalb + delta).store(cand + b);
    }
    for (; jb < n_; ++jb, ++b) {
      const Cost d = static_cast<Cost>(vals[b]) - va;
      Cost delta = 0;
      if (row_differs) {
        delta += line_error_after(ia, d) + line_error_after(ib, -d);
      }
      if (ja != jb) {
        delta += line_error_after(n_ + ja, d) + line_error_after(n_ + jb, -d);
      }
      const bool b_d1 = (ib == jb);
      if (a_d1 != b_d1) delta += line_error_after(2 * n_, a_d1 ? d : -d);
      const bool b_d2 = (ib + jb == n_ - 1);
      if (a_d2 != b_d2) delta += line_error_after(2 * n_ + 1, a_d2 ? d : -d);
      cand[b] = total + delta;
    }
  }
  cand[x] = csp::kInfiniteCost;
  csp::SwapScan scan(nn);
  scan.feed_lanes(0, std::span<const Cost>(cand, nn), x, rng);
  best_j = scan.best_j;
  best_cost = scan.best_cost;
  ties = scan.ties;
  return nn - 1;
}

std::uint64_t MagicSquare::best_swap_for(std::size_t x, util::Xoshiro256& rng,
                                         std::size_t& best_j, Cost& best_cost,
                                         std::size_t& ties) const {
  // Specialized swap_delta with everything about cell x hoisted out of the
  // candidate loop; the board walk tracks (row, col) so no divisions happen
  // per candidate.
  if (simd::runtime_enabled()) {
    return best_swap_for_simd(x, rng, best_j, best_cost, ties);
  }
  const std::size_t nn = num_variables();
  const std::size_t ia = x / n_, ja = x % n_;
  const Cost va = value(x);
  const bool a_d1 = (ia == ja), a_d2 = (ia + ja == n_ - 1);
  const Cost total = total_cost();
  const auto vals = values();
  csp::SwapScan scan(nn);
  std::size_t b = 0;
  for (std::size_t ib = 0; ib < n_; ++ib) {
    for (std::size_t jb = 0; jb < n_; ++jb, ++b) {
      if (b == x) continue;
      const Cost d = static_cast<Cost>(vals[b]) - va;
      Cost delta = 0;
      if (ia != ib) {
        delta += line_error_after(ia, d) + line_error_after(ib, -d);
      }
      if (ja != jb) {
        delta += line_error_after(n_ + ja, d) + line_error_after(n_ + jb, -d);
      }
      const bool b_d1 = (ib == jb);
      if (a_d1 != b_d1) delta += line_error_after(2 * n_, a_d1 ? d : -d);
      const bool b_d2 = (ib + jb == n_ - 1);
      if (a_d2 != b_d2) delta += line_error_after(2 * n_ + 1, a_d2 ? d : -d);
      scan.consider(b, total + delta, rng);
    }
  }
  best_j = scan.best_j;
  best_cost = scan.best_cost;
  ties = scan.ties;
  return nn - 1;
}

bool MagicSquare::verify(std::span<const int> vals) const {
  if (vals.size() != n_ * n_) return false;
  if (!csp::is_permutation_of(vals, canonical_values(n_))) return false;
  for (std::size_t i = 0; i < n_; ++i) {
    Cost row = 0, col = 0;
    for (std::size_t j = 0; j < n_; ++j) {
      row += vals[i * n_ + j];
      col += vals[j * n_ + i];
    }
    if (row != magic_ || col != magic_) return false;
  }
  Cost d1 = 0, d2 = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    d1 += vals[i * n_ + i];
    d2 += vals[i * n_ + (n_ - 1 - i)];
  }
  return d1 == magic_ && d2 == magic_;
}

csp::TuningHints MagicSquare::tuning() const noexcept {
  csp::TuningHints hints;
  // Swept empirically (see DESIGN.md): plateau walking plus occasional
  // worsening moves matter on the |line - M| surface; resets fire after a
  // quarter of the cells have hit local minima and reshuffle a small subset.
  hints.freeze_loc_min = 5;
  hints.freeze_swap = 0;
  hints.reset_limit = static_cast<std::uint32_t>(
      std::max<std::size_t>(2, n_ * n_ / 4));
  hints.reset_fraction = 0.05;
  hints.restart_limit = static_cast<std::uint64_t>(n_) * n_ * 400;
  hints.prob_accept_plateau = 0.5;
  hints.prob_accept_local_min = 0.1;
  return hints;
}

std::string MagicSquare::board_to_string() const {
  std::ostringstream os;
  const auto vals = values();
  const int width = static_cast<int>(std::to_string(n_ * n_).size());
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      os.width(width + 1);
      os << vals[i * n_ + j];
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace cspls::problems
