#include "csp/scalar_path.hpp"

#include <stdexcept>

namespace cspls::csp {

ScalarPathProblem::ScalarPathProblem(std::unique_ptr<Problem> inner)
    : inner_(std::move(inner)) {
  if (!inner_) {
    throw std::invalid_argument("ScalarPathProblem: null inner problem");
  }
}

const std::string& ScalarPathProblem::name() const noexcept {
  return inner_->name();
}

std::string ScalarPathProblem::instance_description() const {
  return inner_->instance_description() + " [scalar path]";
}

std::size_t ScalarPathProblem::num_variables() const noexcept {
  return inner_->num_variables();
}

std::unique_ptr<Problem> ScalarPathProblem::clone() const {
  return std::make_unique<ScalarPathProblem>(inner_->clone());
}

std::span<const int> ScalarPathProblem::values() const noexcept {
  return inner_->values();
}

Cost ScalarPathProblem::randomize(util::Xoshiro256& rng) {
  return inner_->randomize(rng);
}

Cost ScalarPathProblem::assign(std::span<const int> values) {
  return inner_->assign(values);
}

Cost ScalarPathProblem::total_cost() const noexcept {
  return inner_->total_cost();
}

Cost ScalarPathProblem::full_cost() const { return inner_->full_cost(); }

Cost ScalarPathProblem::cost_on_variable(std::size_t i) const {
  return inner_->cost_on_variable(i);
}

Cost ScalarPathProblem::cost_if_swap(std::size_t i, std::size_t j) const {
  return inner_->cost_if_swap(i, j);
}

Cost ScalarPathProblem::swap(std::size_t i, std::size_t j) {
  return inner_->swap(i, j);
}

Cost ScalarPathProblem::reset_perturbation(double fraction,
                                           util::Xoshiro256& rng) {
  return inner_->reset_perturbation(fraction, rng);
}

bool ScalarPathProblem::verify(std::span<const int> values) const {
  return inner_->verify(values);
}

bool ScalarPathProblem::is_configuration(std::span<const int> values) const {
  return inner_->is_configuration(values);
}

TuningHints ScalarPathProblem::tuning() const noexcept {
  return inner_->tuning();
}

void ScalarPathProblem::cost_on_all_variables(std::span<Cost> out) const {
  detail::scalar_cost_on_all_variables(*inner_, out);
}

std::uint64_t ScalarPathProblem::best_swap_for(std::size_t x,
                                               util::Xoshiro256& rng,
                                               std::size_t& best_j,
                                               Cost& best_cost,
                                               std::size_t& ties) const {
  return detail::scalar_best_swap_for(*inner_, x, rng, best_j, best_cost,
                                      ties);
}

}  // namespace cspls::csp
