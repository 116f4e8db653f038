#include "ising/ising_model.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "util/simd.hpp"

namespace saim::ising {

IsingModel::IsingModel(std::size_t n)
    : n_(n), coupling_(n * n, 0.0), field_(n, 0.0) {}

IsingModel::IsingModel(std::vector<double> coupling,
                       std::vector<double> field, double offset)
    : n_(field.size()),
      coupling_(std::move(coupling)),
      field_(std::move(field)),
      offset_(offset) {
  if (coupling_.size() != n_ * n_) {
    throw std::invalid_argument("IsingModel: coupling must be n*n");
  }
  for (std::size_t i = 0; i < n_; ++i) {
    if (coupling_[i * n_ + i] != 0.0) {
      throw std::invalid_argument("IsingModel: coupling diagonal must be 0");
    }
  }
}

void IsingModel::check_index(std::size_t i) const {
  if (i >= n_) {
    throw std::out_of_range("IsingModel: index " + std::to_string(i) +
                            " out of range for n=" + std::to_string(n_));
  }
}

void IsingModel::add_coupling(std::size_t i, std::size_t j, double v) {
  check_index(i);
  check_index(j);
  if (i == j) {
    // m_i^2 == 1: a diagonal coupling is a constant shift of -v in H.
    offset_ -= v;
    return;
  }
  coupling_[i * n_ + j] += v;
  coupling_[j * n_ + i] += v;
}

double IsingModel::coupling(std::size_t i, std::size_t j) const {
  check_index(i);
  check_index(j);
  if (i == j) return 0.0;
  return coupling_[i * n_ + j];
}

void IsingModel::add_field(std::size_t i, double v) {
  check_index(i);
  field_[i] += v;
}

void IsingModel::set_field(std::size_t i, double v) {
  check_index(i);
  field_[i] = v;
}

double IsingModel::field(std::size_t i) const {
  check_index(i);
  return field_[i];
}

std::span<const double> IsingModel::row(std::size_t i) const {
  check_index(i);
  return {coupling_.data() + i * n_, n_};
}

double IsingModel::energy(std::span<const std::int8_t> m) const {
  // Row i contributes acc_i = sum_{j>i} J_ij m_j, summed in ascending j.
  // Eight rows at a time, the acc_i are built from row j at columns
  // i0..i0+7 instead (J_ij == J_ji bit for bit, see add_coupling): each
  // lane still adds its own terms in ascending j, so every acc_i, and the
  // in-order fold into e, match the row-by-row loop below bit for bit.
  double e = offset_;
  std::size_t i0 = 0;
  for (; i0 + 8 <= n_; i0 += 8) {
    // The triangle j < i0 + 8 first, per lane, in ascending j.
    double acc[8] = {};
    for (std::size_t l = 0; l < 8; ++l) {
      const double* r = coupling_.data() + (i0 + l) * n_;
      for (std::size_t j = i0 + l + 1; j < i0 + 8; ++j) {
        acc[l] += r[j] * static_cast<double>(m[j]);
      }
    }
    util::F64x4 lo = util::F64x4::load(acc);
    util::F64x4 hi = util::F64x4::load(acc + 4);
    for (std::size_t j = i0 + 8; j < n_; ++j) {
      const double* c = coupling_.data() + j * n_ + i0;
      const auto mj = util::F64x4::broadcast(static_cast<double>(m[j]));
      lo = lo + util::F64x4::load(c) * mj;
      hi = hi + util::F64x4::load(c + 4) * mj;
    }
    lo.store(acc);
    hi.store(acc + 4);
    for (std::size_t l = 0; l < 8; ++l) {
      const auto mi = static_cast<double>(m[i0 + l]);
      e -= field_[i0 + l] * mi;
      e -= mi * acc[l];
    }
  }
  for (std::size_t i = i0; i < n_; ++i) {
    const auto mi = static_cast<double>(m[i]);
    e -= field_[i] * mi;
    const double* r = coupling_.data() + i * n_;
    double acc = 0.0;
    for (std::size_t j = i + 1; j < n_; ++j) {
      acc += r[j] * static_cast<double>(m[j]);
    }
    e -= mi * acc;
  }
  return e;
}

double IsingModel::input(std::span<const std::int8_t> m, std::size_t i) const {
  double acc = field_[i];
  const double* r = coupling_.data() + i * n_;
  for (std::size_t j = 0; j < n_; ++j) {
    acc += r[j] * static_cast<double>(m[j]);
  }
  return acc;
}

double IsingModel::flip_delta(std::span<const std::int8_t> m,
                              std::size_t i) const {
  // H contains -m_i * I_i (with I_i independent of m_i); flipping m_i
  // changes H by 2 m_i I_i.
  return 2.0 * static_cast<double>(m[i]) * input(m, i);
}

std::size_t IsingModel::nnz() const noexcept {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    const double* r = coupling_.data() + i * n_;
    for (std::size_t j = i + 1; j < n_; ++j) {
      if (r[j] != 0.0) ++count;
    }
  }
  return count;
}

}  // namespace saim::ising
