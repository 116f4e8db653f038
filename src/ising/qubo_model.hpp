// Quadratic Unconstrained Binary Optimization model:
//
//   E(x) = sum_{i<j} Q_ij x_i x_j + sum_i q_i x_i + c ,  x in {0,1}^n
//
// This is the binary-variable view the paper's energies are written in
// (eq. 3 and eq. 5); the p-bit machine consumes its ±1 (Ising) image via
// ising/convert.hpp. Problem sizes here are a few hundred variables
// (N=100..300 plus ~10 slack bits), so couplings are stored densely as a
// full symmetric matrix: row access during Monte-Carlo sweeps is then a
// contiguous scan, which beats sparse formats below ~10^3 variables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace saim::ising {

using Bits = std::vector<std::uint8_t>;  ///< binary configuration, values 0/1

class QuboModel {
 public:
  QuboModel() = default;
  explicit QuboModel(std::size_t n);

  /// Takes a finished model: `coupling` is Q as n*n row-major doubles with
  /// n = linear.size(). Q must be symmetric bit for bit; only its size and
  /// zero diagonal are checked. Throws std::invalid_argument otherwise.
  QuboModel(std::vector<double> coupling, std::vector<double> linear,
            double offset);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }

  /// Accumulates into the linear coefficient q_i.
  void add_linear(std::size_t i, double v);
  [[nodiscard]] double linear(std::size_t i) const;
  [[nodiscard]] std::span<const double> linear_terms() const noexcept {
    return linear_;
  }

  /// Accumulates into the symmetric coupling Q_ij (i != j). The value `v`
  /// is the full coefficient of the product x_i x_j; internally both (i,j)
  /// and (j,i) halves are kept so that row scans see every neighbour.
  void add_quadratic(std::size_t i, std::size_t j, double v);
  [[nodiscard]] double quadratic(std::size_t i, std::size_t j) const;

  void add_offset(double v) noexcept { offset_ += v; }
  void set_offset(double v) noexcept { offset_ = v; }
  [[nodiscard]] double offset() const noexcept { return offset_; }

  /// Contiguous row i of the symmetric coupling matrix (length n).
  [[nodiscard]] std::span<const double> row(std::size_t i) const;

  /// Full energy E(x). O(n^2).
  [[nodiscard]] double energy(std::span<const std::uint8_t> x) const;

  /// Energy change of flipping bit i from configuration x. O(n):
  ///   dE = (1 - 2 x_i) * (q_i + sum_j Q_ij x_j).
  [[nodiscard]] double flip_delta(std::span<const std::uint8_t> x,
                                  std::size_t i) const;

  /// Local field q_i + sum_j Q_ij x_j (the gradient of E w.r.t. x_i).
  [[nodiscard]] double local_field(std::span<const std::uint8_t> x,
                                   std::size_t i) const;

  /// Number of strictly-upper-triangle nonzero couplings.
  [[nodiscard]] std::size_t nnz() const noexcept;

  /// Coupling density d = nnz / (n(n-1)/2); the paper's penalty heuristic
  /// P = alpha * d * N uses this quantity.
  [[nodiscard]] double density() const noexcept;

  /// Largest absolute coefficient over couplings and linear terms.
  [[nodiscard]] double max_abs_coefficient() const noexcept;

  /// Calls f(i, j, Q_ij) for every nonzero coupling with i < j.
  template <typename F>
  void for_each_quadratic(F&& f) const {
    for (std::size_t i = 0; i < n_; ++i) {
      const double* r = coupling_.data() + i * n_;
      for (std::size_t j = i + 1; j < n_; ++j) {
        if (r[j] != 0.0) f(i, j, r[j]);
      }
    }
  }

 private:
  void check_index(std::size_t i) const;

  std::size_t n_ = 0;
  std::vector<double> coupling_;  ///< n*n row-major symmetric, zero diagonal
  std::vector<double> linear_;
  double offset_ = 0.0;
};

}  // namespace saim::ising
