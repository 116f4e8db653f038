// The shaped energy landscape SAIM minimizes (paper eq. 3 + eq. 5):
//
//   L(x; lambda) = f(x) + P * ||g(x)||^2 + lambda^T g(x)
//
// For linear g_m(x) = a_m.x - b_m the quadratic penalty expands to fixed
// couplings  2P a_mi a_mj  and fixed linear/constant parts, while the
// Lagrange term lambda^T g is *linear* in x. Consequence, central to the
// implementation: updating lambda between SAIM iterations never touches the
// couplings J — only the linear coefficients q (hence the Ising fields h and
// the offset) move. set_lambda() therefore costs O(nnz(A) + n), and the
// p-bit machine's coupling CSR built at bind() stays valid for the whole
// run. This mirrors the paper's "the Ising coefficients J and h are
// consequently updated at each iteration" at the minimal possible cost.
//
// The model keeps no QUBO copy of L: the constructor writes J row by row,
// one pass per row, and keeps only what set_lambda needs (the lambda = 0
// linear terms and offset, each row sum of Q and the quadratic offset).
// The build adds in the order the accumulate-then-convert path
// (QuboModel::add_quadratic, then ising::qubo_to_ising) did, so every bit
// of J, h and the offset is the same as that path's:
//   * Q_ij = 0.0 + f_ij, then each constraint's term in index order; the
//     term of terms u < v of one row is (2P a_u) a_v, u the earlier one;
//   * J_ij = 0.0 - Q_ij / 4: -Q_ij/4 where Q_ij != 0, exactly +0.0 else;
//   * each row sum adds Q_ij in ascending j, the quadratic offset adds
//     Q_ij / 4 over i < j in row-major order, and the constructor's Ising
//     offset is (c + sum Q_ij/4) + sum q_i/2 in that order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ising/ising_model.hpp"
#include "problems/constrained_problem.hpp"

namespace saim::lagrange {

class LagrangianModel {
 public:
  /// Builds the lambda = 0 landscape: f + P ||g||^2. The problem reference
  /// must outlive the model.
  LagrangianModel(const problems::ConstrainedProblem& problem, double penalty);

  [[nodiscard]] std::size_t n() const noexcept { return linear_.size(); }
  [[nodiscard]] double penalty() const noexcept { return penalty_; }
  [[nodiscard]] const problems::ConstrainedProblem& problem() const noexcept {
    return *problem_;
  }

  /// Current multipliers (size = number of constraints).
  [[nodiscard]] std::span<const double> lambda() const noexcept {
    return lambda_;
  }

  /// Rewrites the landscape for new multipliers. O(nnz(A) + n); couplings
  /// untouched. The bound IsingModel's fields/offset are refreshed in place.
  void set_lambda(std::span<const double> lambda);

  /// The current L as an Ising model (what the p-bit machine samples).
  /// Stable address across set_lambda() calls.
  [[nodiscard]] const ising::IsingModel& ising() const noexcept {
    return ising_;
  }

  /// L(x; lambda) evaluated directly from f, g and lambda — used by tests to
  /// cross-check the Ising image.
  [[nodiscard]] double lagrangian(std::span<const std::uint8_t> x) const;

 private:
  void rebuild_linear();

  const problems::ConstrainedProblem* problem_;
  double penalty_;
  std::vector<double> lambda_;

  std::vector<double> base_linear_;  ///< q of f + P||g||^2 (lambda = 0)
  double base_offset_ = 0.0;
  std::vector<double> linear_;       ///< q of the current L

  ising::IsingModel ising_;            ///< Ising image of the current L
  std::vector<double> ising_row_sum_;  ///< sum_j Q_ij, fixed (for h refresh)
  double ising_quad_offset_ = 0.0;     ///< sum_{i<j} Q_ij / 4, fixed
};

/// The paper's penalty heuristic P = alpha * d * N (section III-A, after
/// [16],[17]): d = density of the coupling matrix (with the fixed-spin
/// convention for linear objectives), N = total spin count incl. slack.
double heuristic_penalty(const problems::ConstrainedProblem& problem,
                         double alpha);

}  // namespace saim::lagrange
