// Ising model in the paper's sign convention (eq. 1):
//
//   H(m) = - sum_{i<j} J_ij m_i m_j - sum_i h_i m_i + offset ,  m in {-1,+1}^n
//
// The p-bit machine (src/pbit) minimizes H by Gibbs sampling from
// exp(-beta * H). Dense symmetric storage mirrors QuboModel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace saim::ising {

using Spins = std::vector<std::int8_t>;  ///< spin configuration, values ±1

class IsingModel {
 public:
  IsingModel() = default;
  explicit IsingModel(std::size_t n);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }

  /// Accumulates into the symmetric coupling J_ij (i != j).
  void add_coupling(std::size_t i, std::size_t j, double v);
  [[nodiscard]] double coupling(std::size_t i, std::size_t j) const;

  void add_field(std::size_t i, double v);
  void set_field(std::size_t i, double v);
  [[nodiscard]] double field(std::size_t i) const;
  [[nodiscard]] std::span<const double> fields() const noexcept {
    return field_;
  }
  [[nodiscard]] std::span<double> mutable_fields() noexcept { return field_; }

  void add_offset(double v) noexcept { offset_ += v; }
  [[nodiscard]] double offset() const noexcept { return offset_; }
  void set_offset(double v) noexcept { offset_ = v; }

  /// Contiguous row i of J (length n, zero diagonal).
  [[nodiscard]] std::span<const double> row(std::size_t i) const;

  /// Full Hamiltonian H(m). O(n^2), the start energy of every inner run.
  /// Sums acc_i = sum_{j>i} J_ij m_j in ascending j and folds
  /// e -= h_i m_i; e -= m_i acc_i in ascending i — the row-by-row order,
  /// bit for bit — but builds eight acc_i at once from the symmetric
  /// rows, as contiguous 4-lane loads.
  [[nodiscard]] double energy(std::span<const std::int8_t> m) const;

  /// p-bit input I_i = sum_j J_ij m_j + h_i  (paper eq. 9). O(n).
  [[nodiscard]] double input(std::span<const std::int8_t> m,
                             std::size_t i) const;

  /// Energy change of flipping spin i: dH = 2 m_i I_i. O(n).
  [[nodiscard]] double flip_delta(std::span<const std::int8_t> m,
                                  std::size_t i) const;

  [[nodiscard]] std::size_t nnz() const noexcept;

  template <typename F>
  void for_each_coupling(F&& f) const {
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
  std::vector<double> coupling_;  ///< n*n symmetric, zero diagonal
  std::vector<double> field_;
  double offset_ = 0.0;
};

}  // namespace saim::ising
