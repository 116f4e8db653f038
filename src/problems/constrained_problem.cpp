#include "problems/constrained_problem.hpp"

#include <cmath>
#include <stdexcept>

namespace saim::problems {

double LinearConstraint::eval(std::span<const std::uint8_t> x) const {
  double acc = -rhs;
  for (const auto& [idx, coeff] : terms) {
    if (x[idx]) acc += coeff;
  }
  return acc;
}

ConstrainedProblem::ConstrainedProblem(ising::QuboModel objective,
                                       std::vector<LinearConstraint> constraints,
                                       std::size_t num_decision)
    : objective_(std::move(objective)),
      constraints_(std::move(constraints)),
      num_decision_(num_decision) {
  if (num_decision_ > objective_.n()) {
    throw std::invalid_argument(
        "ConstrainedProblem: num_decision exceeds variable count");
  }
  // A row naming one variable twice would square into a diagonal term;
  // LagrangianModel's row-wise build assumes every row's indices distinct.
  std::vector<std::size_t> seen_in(objective_.n(), constraints_.size());
  for (std::size_t m = 0; m < constraints_.size(); ++m) {
    for (const auto& [idx, coeff] : constraints_[m].terms) {
      (void)coeff;
      if (idx >= objective_.n()) {
        throw std::invalid_argument(
            "ConstrainedProblem: constraint index out of range");
      }
      if (seen_in[idx] == m) {
        throw std::invalid_argument(
            "ConstrainedProblem: constraint row names a variable twice");
      }
      seen_in[idx] = m;
    }
  }
}

std::vector<double> ConstrainedProblem::constraint_values(
    std::span<const std::uint8_t> x) const {
  std::vector<double> g(constraints_.size());
  for (std::size_t m = 0; m < constraints_.size(); ++m) {
    g[m] = constraints_[m].eval(x);
  }
  return g;
}

double ConstrainedProblem::violation_sq(
    std::span<const std::uint8_t> x) const {
  double acc = 0.0;
  for (const auto& c : constraints_) {
    const double g = c.eval(x);
    acc += g * g;
  }
  return acc;
}

double ConstrainedProblem::max_violation(
    std::span<const std::uint8_t> x) const {
  double acc = 0.0;
  for (const auto& c : constraints_) {
    acc = std::max(acc, std::abs(c.eval(x)));
  }
  return acc;
}

double ConstrainedProblem::density_for_penalty() const {
  const std::size_t total = n();
  if (total < 2) return 0.0;
  if (objective_.nnz() == 0) {
    // Paper section IV-B: d ~ N/(0.5 N (N+1)) = 2/(N+1) for linear
    // objectives (fields seen as couplings to a fixed reference spin).
    return 2.0 / (static_cast<double>(total) + 1.0);
  }
  return objective_.density();
}

}  // namespace saim::problems
