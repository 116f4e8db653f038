// Test-local compressed-sparse-row table of an Ising model's couplings,
// built for every model whatever its fill, and the per-row 4-lane sum
// over it. This is the reference the library's Adjacency is pinned
// against: a dense Adjacency stores no CSR and reads the model's rows, so
// its coupling sums are the code under test, and they must equal these
// bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ising/ising_model.hpp"
#include "util/simd.hpp"

namespace saim::testing_models {

class CsrAdjacency {
 public:
  /// Row i is the nonzeros of dense row i (entries not equal to 0.0) in
  /// ascending j.
  explicit CsrAdjacency(const ising::IsingModel& model) : n_(model.n()) {
    offsets_.assign(n_ + 1, 0);
    for (std::size_t i = 0; i < n_; ++i) {
      std::size_t degree = 0;
      for (const double v : model.row(i)) degree += v != 0.0 ? 1 : 0;
      offsets_[i + 1] = offsets_[i] + degree;
    }
    indices_.resize(offsets_[n_]);
    weights_.resize(offsets_[n_]);
    for (std::size_t i = 0; i < n_; ++i) {
      const auto row = model.row(i);
      std::size_t e = offsets_[i];
      for (std::size_t j = 0; j < n_; ++j) {
        if (row[j] != 0.0) {
          indices_[e] = static_cast<std::uint32_t>(j);
          weights_[e] = row[j];
          ++e;
        }
      }
    }
  }

  [[nodiscard]] std::size_t edge_count() const { return weights_.size() / 2; }

  [[nodiscard]] std::span<const std::uint32_t> neighbors(std::size_t i) const {
    return {indices_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }
  [[nodiscard]] std::span<const double> weights(std::size_t i) const {
    return {weights_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  /// sum_j J_ij m_j over row i's entries: four lanes, folded as
  /// (a0+a1)+(a2+a3), then a sequential scalar tail.
  [[nodiscard]] double coupling_input(std::span<const std::int8_t> m,
                                      std::size_t i) const {
    const auto nbr = neighbors(i);
    const auto w = weights(i);
    const std::size_t deg = nbr.size();
    const std::size_t deg4 = deg & ~std::size_t{3};
    std::size_t k = 0;
    double acc = 0.0;
    if (deg4 != 0) {
      util::F64x4 accv = util::F64x4::zero();
      for (; k < deg4; k += 4) {
        const util::F64x4 wv = util::F64x4::load(w.data() + k);
        const util::F64x4 mv =
            util::F64x4::set(static_cast<double>(m[nbr[k]]),
                             static_cast<double>(m[nbr[k + 1]]),
                             static_cast<double>(m[nbr[k + 2]]),
                             static_cast<double>(m[nbr[k + 3]]));
        accv = accv + wv * mv;
      }
      double lanes[4];
      util::store4(accv, lanes);
      acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    }
    for (; k < deg; ++k) {
      acc += w[k] * static_cast<double>(m[nbr[k]]);
    }
    return acc;
  }

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> offsets_;
  std::vector<std::uint32_t> indices_;
  std::vector<double> weights_;
};

}  // namespace saim::testing_models
