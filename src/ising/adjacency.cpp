#include "ising/adjacency.hpp"

namespace saim::ising {

Adjacency::Adjacency(const IsingModel& model) : n_(model.n()) {
  // Row i of the CSR is the nonzeros of dense row i in ascending j. The
  // dense matrix is symmetric bit for bit (add_coupling applies the same
  // additions to J_ij and J_ji), so both directions of an edge carry the
  // same weight.
  offsets_.assign(n_ + 1, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    const auto row = model.row(i);
    std::size_t degree = 0;
    for (const double v : row) degree += v != 0.0 ? 1 : 0;
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

}  // namespace saim::ising
