// N-Queens in the permutation model (from the original Adaptive Search
// distribution; not in the paper's figures but used by the validation
// benches against the complete-search baseline).
//
// V[i] = row of the queen in column i, a permutation of 0..n-1 (rows and
// columns are therefore conflict-free by construction); cost counts surplus
// occupations of the 2(2n-1) diagonals.
#pragma once

#include <string>
#include <vector>

#include "csp/problem.hpp"

namespace cspls::problems {

class Queens final : public csp::PermutationProblem {
 public:
  explicit Queens(std::size_t n);

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

 protected:
  csp::Cost on_rebind() override;
  csp::Cost did_swap(std::size_t i, std::size_t j) override;

 private:
  /// Data-parallel variants of the two bulk hooks (taken when
  /// util::simd::runtime_enabled(); ISA-cloned, see util/simd.hpp).  The
  /// first fills the full lanes of `out` and returns where the scalar tail
  /// starts; the second is best_swap_for with bit-identical costs and RNG
  /// draws.
  std::size_t cost_on_all_variables_simd(std::span<csp::Cost> out) const;
  std::uint64_t best_swap_for_simd(std::size_t x, util::Xoshiro256& rng,
                                   std::size_t& best_j, csp::Cost& best_cost,
                                   std::size_t& ties) const;

  [[nodiscard]] std::size_t up_slot(std::size_t col, int row) const noexcept {
    return static_cast<std::size_t>(row) + col;  // row + col in [0, 2n-2]
  }
  [[nodiscard]] std::size_t down_slot(std::size_t col, int row) const noexcept {
    return static_cast<std::size_t>(row - static_cast<int>(col) +
                                    static_cast<int>(n_) - 1);
  }

  ///

  csp::Cost bump(std::size_t col, int row, int step) const;

  std::size_t n_;
  std::string name_ = "queens";
  mutable std::vector<int> up_;    ///< occupation of / diagonals
  mutable std::vector<int> down_;  ///< occupation of \ diagonals
};

}  // namespace cspls::problems
