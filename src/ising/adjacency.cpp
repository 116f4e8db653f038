#include "ising/adjacency.hpp"

#include <algorithm>
#include <vector>

namespace saim::ising {

Adjacency::Adjacency(const IsingModel& model) : n_(model.n()) {
  // Row i's entries are the nonzeros of dense row i in ascending j. The
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
  if (n_ != 0 && 10 * offsets_[n_] >= 3 * n_ * n_) {
    dense_j_ = model.row(0).data();
    return;
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

/// Entries k..k+3 of complete row r, read from a length-n array `v` indexed
/// by column (a row of J, or the spins): entry k is column k below the
/// diagonal and k + 1 from it on.
util::F64x4 complete_row_entries(const double* v, std::size_t k,
                                 std::size_t r) noexcept {
  if (k + 4 <= r) return util::F64x4::load(v + k);
  if (k >= r) return util::F64x4::load(v + k + 1);
  return util::F64x4::set(v[k + (k >= r)], v[k + 1 + (k + 1 >= r)],
                          v[k + 2 + (k + 2 >= r)], v[k + 3 + (k + 3 >= r)]);
}

/// coupling_input for the four complete rows i..i+3 of the n*n matrix
/// whose row i starts at `j`. Each row keeps its own 4-lane chain in
/// coupling_input's order; running four chains side by side hides the add
/// latency, and the rows share each spin load. Only the blocks between
/// row i's diagonal and row i+3's are assembled lane by lane.
void complete_row_inputs(const double* j, std::size_t n, const double* md,
                         std::size_t i, double* out) noexcept {
  const std::size_t deg = n - 1;
  const std::size_t deg4 = deg & ~std::size_t{3};
  const std::size_t below = std::min(i & ~std::size_t{3}, deg4);
  const std::size_t above = std::min((i + 6) & ~std::size_t{3}, deg4);
  util::F64x4 acc[4] = {util::F64x4::zero(), util::F64x4::zero(),
                        util::F64x4::zero(), util::F64x4::zero()};
  std::size_t k = 0;
  for (; k < below; k += 4) {
    const util::F64x4 mv = util::F64x4::load(md + k);
    for (std::size_t t = 0; t < 4; ++t) {
      acc[t] = acc[t] + util::F64x4::load(j + t * n + k) * mv;
    }
  }
  for (; k < above; k += 4) {
    for (std::size_t t = 0; t < 4; ++t) {
      acc[t] = acc[t] + complete_row_entries(j + t * n, k, i + t) *
                            complete_row_entries(md, k, i + t);
    }
  }
  for (; k < deg4; k += 4) {
    const util::F64x4 mv = util::F64x4::load(md + k + 1);
    for (std::size_t t = 0; t < 4; ++t) {
      acc[t] = acc[t] + util::F64x4::load(j + t * n + k + 1) * mv;
    }
  }
  for (std::size_t t = 0; t < 4; ++t) {
    const double* jt = j + t * n;
    const std::size_t r = i + t;
    double sum = 0.0;
    if (deg4 != 0) {
      double lanes[4];
      util::store4(acc[t], lanes);
      sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    }
    for (k = deg4; k < deg; ++k) {
      const std::size_t col = k + (k >= r);
      sum += jt[col] * md[col];
    }
    out[r] = sum;
  }
}

}  // namespace

double Adjacency::dense_coupling_input(std::span<const std::int8_t> m,
                                       std::size_t i) const noexcept {
  const double* row = dense_j_ + i * n_;
  const std::size_t deg = degree(i);
  const std::size_t deg4 = deg & ~std::size_t{3};
  const auto spin = [&](std::size_t col) {
    return static_cast<double>(m[col]);
  };
  double acc = 0.0;
  std::size_t k = 0;
  if (deg + 1 == n_) {
    // Complete row: entry k is column k + (k >= i).
    if (deg4 != 0) {
      util::F64x4 accv = util::F64x4::zero();
      for (; k < deg4; k += 4) {
        const util::F64x4 mv = util::F64x4::set(
            spin(k + (k >= i)), spin(k + 1 + (k + 1 >= i)),
            spin(k + 2 + (k + 2 >= i)), spin(k + 3 + (k + 3 >= i)));
        accv = accv + complete_row_entries(row, k, i) * mv;
      }
      double lanes[4];
      util::store4(accv, lanes);
      acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    }
    for (; k < deg; ++k) {
      const std::size_t col = k + (k >= i);
      acc += row[col] * spin(col);
    }
    return acc;
  }
  // Row with exact zeros: entry k is the k-th column whose value is not
  // equal to 0.0, as in the CSR, so the row is walked in ascending j.
  std::size_t col = 0;
  const auto next = [&] {
    while (!(row[col] != 0.0)) ++col;
    return col++;
  };
  if (deg4 != 0) {
    util::F64x4 accv = util::F64x4::zero();
    double w[4];
    double s[4];
    for (; k < deg4; k += 4) {
      for (std::size_t t = 0; t < 4; ++t) {
        const std::size_t c = next();
        w[t] = row[c];
        s[t] = spin(c);
      }
      accv = accv + util::F64x4::load(w) * util::F64x4::load(s);
    }
    double lanes[4];
    util::store4(accv, lanes);
    acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  }
  for (; k < deg; ++k) {
    const std::size_t c = next();
    acc += row[c] * spin(c);
  }
  return acc;
}

void Adjacency::coupling_inputs(std::span<const std::int8_t> m,
                                std::span<double> out) const {
  if (dense_j_ == nullptr) {
    for (std::size_t i = 0; i < n_; ++i) out[i] = coupling_input(m, i);
    return;
  }
  const std::vector<double> spins(m.begin(), m.end());
  std::size_t i = 0;
  while (i < n_) {
    // Every degree is at most n-1, so four rows hold 4(n-1) entries
    // exactly when all four are complete.
    if (i + 4 <= n_ && offsets_[i + 4] - offsets_[i] == 4 * (n_ - 1)) {
      complete_row_inputs(dense_j_ + i * n_, n_, spins.data(), i, out.data());
      i += 4;
    } else {
      out[i] = dense_coupling_input(m, i);
      ++i;
    }
  }
}

}  // namespace saim::ising
