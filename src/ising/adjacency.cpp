#include "ising/adjacency.hpp"

#include <algorithm>
#include <vector>

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

namespace {

/// Spins of CSR entries k..k+3 of a complete row r: entry k is column k
/// below the diagonal and k + 1 from it on.
util::F64x4 complete_row_spins(const double* md, std::size_t k,
                               std::size_t r) noexcept {
  if (k + 4 <= r) return util::F64x4::load(md + k);
  if (k >= r) return util::F64x4::load(md + k + 1);
  return util::F64x4::set(md[k + (k >= r)], md[k + 1 + (k + 1 >= r)],
                          md[k + 2 + (k + 2 >= r)], md[k + 3 + (k + 3 >= r)]);
}

/// coupling_input for the four complete rows i..i+3, whose weights sit at
/// w + t * deg. Each row keeps its own 4-lane chain in coupling_input's
/// order; running four chains side by side hides the add latency, and
/// the rows share each spin load. Only the blocks between row i's
/// diagonal and row i+3's are assembled lane by lane.
void complete_row_inputs(const double* w, std::size_t deg, const double* md,
                         std::size_t i, double* out) noexcept {
  const std::size_t deg4 = deg & ~std::size_t{3};
  const std::size_t below = std::min(i & ~std::size_t{3}, deg4);
  const std::size_t above = std::min((i + 6) & ~std::size_t{3}, deg4);
  util::F64x4 acc[4] = {util::F64x4::zero(), util::F64x4::zero(),
                        util::F64x4::zero(), util::F64x4::zero()};
  std::size_t k = 0;
  for (; k < below; k += 4) {
    const util::F64x4 mv = util::F64x4::load(md + k);
    for (std::size_t t = 0; t < 4; ++t) {
      acc[t] = acc[t] + util::F64x4::load(w + t * deg + k) * mv;
    }
  }
  for (; k < above; k += 4) {
    for (std::size_t t = 0; t < 4; ++t) {
      acc[t] = acc[t] + util::F64x4::load(w + t * deg + k) *
                            complete_row_spins(md, k, i + t);
    }
  }
  for (; k < deg4; k += 4) {
    const util::F64x4 mv = util::F64x4::load(md + k + 1);
    for (std::size_t t = 0; t < 4; ++t) {
      acc[t] = acc[t] + util::F64x4::load(w + t * deg + k) * mv;
    }
  }
  for (std::size_t t = 0; t < 4; ++t) {
    const double* wt = w + t * deg;
    const std::size_t r = i + t;
    double sum = 0.0;
    if (deg4 != 0) {
      double lanes[4];
      util::store4(acc[t], lanes);
      sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    }
    for (k = deg4; k < deg; ++k) sum += wt[k] * md[k + (k >= r)];
    out[r] = sum;
  }
}

}  // namespace

void Adjacency::coupling_inputs(std::span<const std::int8_t> m,
                                std::span<double> out) const {
  const std::vector<double> spins(m.begin(), m.end());
  std::size_t i = 0;
  while (i < n_) {
    // Every degree is at most n-1, so four rows hold 4(n-1) entries
    // exactly when all four are complete.
    if (i + 4 <= n_ && offsets_[i + 4] - offsets_[i] == 4 * (n_ - 1)) {
      complete_row_inputs(weights_.data() + offsets_[i], n_ - 1,
                          spins.data(), i, out.data());
      i += 4;
    } else {
      out[i] = coupling_input(m, i);
      ++i;
    }
  }
}

}  // namespace saim::ising
