// All-Interval Series (CSPLib prob007), one of the paper's CSPLib benchmarks.
//
// Find a permutation V of {0..n-1} such that the n-1 absolute differences
// |V[i+1] - V[i]| are all distinct (hence a permutation of {1..n-1}).  Cost
// model (as in the original Adaptive Search library): keep an occurrence
// table of the differences; the cost is the number of *surplus* occurrences
// (sum of max(0, occ(d) - 1)), which is zero exactly on all-interval series.
// A swap touches at most 4 differences, so cost_if_swap is O(1).
#pragma once

#include <string>
#include <vector>

#include "csp/problem.hpp"

namespace cspls::problems {

class AllInterval final : public csp::PermutationProblem {
 public:
  /// Series length n (n >= 2).
  explicit AllInterval(std::size_t n);

  [[nodiscard]] const std::string& name() const noexcept override;
  [[nodiscard]] std::string instance_description() const override;
  [[nodiscard]] std::unique_ptr<csp::Problem> clone() const override;

  [[nodiscard]] csp::Cost full_cost() const override;
  [[nodiscard]] csp::Cost cost_on_variable(std::size_t i) const override;
  [[nodiscard]] csp::Cost cost_if_swap(std::size_t i,
                                       std::size_t j) const override;
  void cost_on_all_variables(std::span<csp::Cost> out) const override;
  std::uint64_t best_swap_for(std::size_t x, util::Xoshiro256& rng,
                              std::size_t& best_j, csp::Cost& best_cost,
                              std::size_t& ties) const override;
  [[nodiscard]] bool verify(std::span<const int> values) const override;
  [[nodiscard]] csp::TuningHints tuning() const noexcept override;

  /// Custom reset (as the original library's per-benchmark Reset hook):
  /// reverse a random segment.  A reversal disturbs only the two border
  /// differences, so it escapes the plateau without destroying the interior
  /// structure the walk has built — the subset-shuffle default is far too
  /// violent for this landscape.
  csp::Cost reset_perturbation(double fraction,
                               util::Xoshiro256& rng) override;

 protected:
  csp::Cost on_rebind() override;
  csp::Cost did_swap(std::size_t i, std::size_t j) override;

 private:
  /// Difference of adjacent pair starting at position p (p in [0, n-2]),
  /// evaluated as if positions i<->j held swapped values when swapped=true.
  [[nodiscard]] int diff_at(std::size_t p) const noexcept;
  [[nodiscard]] int diff_at_swapped(std::size_t p, std::size_t i,
                                    std::size_t j) const noexcept;

  /// Collect the (deduplicated) pair-start positions affected by swapping
  /// positions i and j into `out`; returns count (<= 4).
  std::size_t affected_pairs(std::size_t i, std::size_t j,
                             std::size_t out[4]) const noexcept;

  /// Data-parallel pass of best_swap_for's candidate costs (taken when
  /// util::simd::runtime_enabled(); ISA-cloned, see util/simd.hpp): fills
  /// cand_cost_ for full lanes of interior candidates from j = 1 and returns
  /// the first j it left to the scalar kernel.  candidate_lanes_for is its
  /// body, specialised on whether x has a left / right neighbour.
  std::size_t candidate_lanes(std::size_t x, csp::Cost base) const;
  template <bool kXL, bool kXR>
  std::size_t candidate_lanes_for(std::size_t x, csp::Cost base) const;

  std::size_t n_;
  std::string name_ = "all-interval";
  /// occ_[d] = number of adjacent pairs with |difference| == d (d in 1..n-1).
  /// Mutable: cost_if_swap tweaks and rolls back entries (<= 4) in place.
  mutable std::vector<int> occ_;
  /// |V[p+1] - V[p]| per pair start, maintained incrementally by
  /// did_swap/on_rebind so the bulk scans read the current differences
  /// instead of recomputing them; cand_cost_ holds every candidate's total
  /// cost so the reservoir scan runs over a plain array after the compute
  /// pass of best_swap_for.
  mutable std::vector<int> pair_diff_;
  mutable std::vector<csp::Cost> cand_cost_;
};

}  // namespace cspls::problems
