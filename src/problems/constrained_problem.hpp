// Generic container for the optimization form the paper works with (eq. 2):
//
//   min f(x)   s.t.   g(x) = 0,   x in {0,1}^n
//
// where f is (at most) quadratic — stored as a QuboModel — and g is linear:
// g_m(x) = a_m . x - rhs_m. The variable vector is the slack-extended one:
// builders (qkp.cpp / mkp.cpp) append binary slack bits, so every original
// inequality appears here as an equality row. The first `num_decision`
// variables are the original decision bits; the rest are slack.
//
// Both the original integer instance view (raw feasibility a^T x <= b,
// raw cost) and this normalized equality view are needed by SAIM: lambda
// updates use g over the full slack-extended x, while the feasible-solution
// pool is filtered with the raw inequality on decision bits only, exactly
// as the paper does ("we check feasibility as A^T x_k <= b").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ising/qubo_model.hpp"

namespace saim::problems {

struct LinearConstraint {
  /// Sparse row: (variable index, coefficient).
  std::vector<std::pair<std::uint32_t, double>> terms;
  double rhs = 0.0;

  /// g_m(x) = a_m . x - rhs.
  [[nodiscard]] double eval(std::span<const std::uint8_t> x) const;
};

class ConstrainedProblem {
 public:
  ConstrainedProblem() = default;
  /// Throws std::invalid_argument when num_decision exceeds the variable
  /// count, or a constraint row names an index out of range or one
  /// variable twice.
  ConstrainedProblem(ising::QuboModel objective,
                     std::vector<LinearConstraint> constraints,
                     std::size_t num_decision);

  /// Total variable count including slack bits.
  [[nodiscard]] std::size_t n() const noexcept { return objective_.n(); }
  /// Count of original (non-slack) decision variables.
  [[nodiscard]] std::size_t num_decision() const noexcept {
    return num_decision_;
  }
  [[nodiscard]] std::size_t num_constraints() const noexcept {
    return constraints_.size();
  }

  [[nodiscard]] const ising::QuboModel& objective() const noexcept {
    return objective_;
  }
  [[nodiscard]] const std::vector<LinearConstraint>& constraints()
      const noexcept {
    return constraints_;
  }

  /// f(x) for the full (slack-extended) configuration.
  [[nodiscard]] double objective_value(std::span<const std::uint8_t> x) const {
    return objective_.energy(x);
  }

  /// g(x), one entry per constraint.
  [[nodiscard]] std::vector<double> constraint_values(
      std::span<const std::uint8_t> x) const;

  /// ||g(x)||^2 — the quantity the penalty method multiplies by P (eq. 3).
  [[nodiscard]] double violation_sq(std::span<const std::uint8_t> x) const;

  /// max_m |g_m(x)| — convenient for tolerance-based equality checks.
  [[nodiscard]] double max_violation(std::span<const std::uint8_t> x) const;

  /// Density d of the objective's coupling matrix, with the paper's MKP
  /// convention: when f has no quadratic part, d = 2/(N+1), "as if the
  /// external fields h were pairwise connections from an additional fixed
  /// spin reference" (section IV-B). N counts all variables incl. slack.
  [[nodiscard]] double density_for_penalty() const;

 private:
  ising::QuboModel objective_;
  std::vector<LinearConstraint> constraints_;
  std::size_t num_decision_ = 0;
};

}  // namespace saim::problems
