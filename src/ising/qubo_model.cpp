#include "ising/qubo_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace saim::ising {

QuboModel::QuboModel(std::size_t n)
    : n_(n), coupling_(n * n, 0.0), linear_(n, 0.0) {}

QuboModel::QuboModel(std::vector<double> coupling, std::vector<double> linear,
                     double offset)
    : n_(linear.size()),
      coupling_(std::move(coupling)),
      linear_(std::move(linear)),
      offset_(offset) {
  if (coupling_.size() != n_ * n_) {
    throw std::invalid_argument("QuboModel: coupling must be n*n");
  }
  for (std::size_t i = 0; i < n_; ++i) {
    if (coupling_[i * n_ + i] != 0.0) {
      throw std::invalid_argument("QuboModel: coupling diagonal must be 0");
    }
  }
}

void QuboModel::check_index(std::size_t i) const {
  if (i >= n_) {
    throw std::out_of_range("QuboModel: index " + std::to_string(i) +
                            " out of range for n=" + std::to_string(n_));
  }
}

void QuboModel::add_linear(std::size_t i, double v) {
  check_index(i);
  linear_[i] += v;
}

double QuboModel::linear(std::size_t i) const {
  check_index(i);
  return linear_[i];
}

void QuboModel::add_quadratic(std::size_t i, std::size_t j, double v) {
  check_index(i);
  check_index(j);
  if (i == j) {
    // x_i^2 == x_i for binaries: a diagonal term is a linear term.
    linear_[i] += v;
    return;
  }
  coupling_[i * n_ + j] += v;
  coupling_[j * n_ + i] += v;
}

double QuboModel::quadratic(std::size_t i, std::size_t j) const {
  check_index(i);
  check_index(j);
  if (i == j) return 0.0;
  return coupling_[i * n_ + j];
}

std::span<const double> QuboModel::row(std::size_t i) const {
  check_index(i);
  return {coupling_.data() + i * n_, n_};
}

double QuboModel::energy(std::span<const std::uint8_t> x) const {
  double e = offset_;
  for (std::size_t i = 0; i < n_; ++i) {
    if (!x[i]) continue;
    e += linear_[i];
    const double* r = coupling_.data() + i * n_;
    for (std::size_t j = i + 1; j < n_; ++j) {
      if (x[j]) e += r[j];
    }
  }
  return e;
}

double QuboModel::local_field(std::span<const std::uint8_t> x,
                              std::size_t i) const {
  double field = linear_[i];
  const double* r = coupling_.data() + i * n_;
  for (std::size_t j = 0; j < n_; ++j) {
    field += r[j] * static_cast<double>(x[j]);
  }
  return field;
}

double QuboModel::flip_delta(std::span<const std::uint8_t> x,
                             std::size_t i) const {
  const double sign = x[i] ? -1.0 : 1.0;
  return sign * local_field(x, i);
}

std::size_t QuboModel::nnz() const noexcept {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    const double* r = coupling_.data() + i * n_;
    for (std::size_t j = i + 1; j < n_; ++j) {
      if (r[j] != 0.0) ++count;
    }
  }
  return count;
}

double QuboModel::density() const noexcept {
  if (n_ < 2) return 0.0;
  const double pairs = 0.5 * static_cast<double>(n_) *
                       static_cast<double>(n_ - 1);
  return static_cast<double>(nnz()) / pairs;
}

double QuboModel::max_abs_coefficient() const noexcept {
  double m = 0.0;
  for (const double v : coupling_) m = std::max(m, std::abs(v));
  for (const double v : linear_) m = std::max(m, std::abs(v));
  return m;
}

}  // namespace saim::ising
