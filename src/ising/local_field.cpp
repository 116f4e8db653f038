#include "ising/local_field.hpp"

#include "util/simd.hpp"

namespace saim::ising {

void LocalFieldState::reset(const Spins& m) {
  adjacency_->coupling_inputs(m, coupling_in_);
  // The dense evaluation reproduces, bit for bit, the energy every
  // pre-engine backend computed at run start, so trajectories stay
  // identical to the recompute era on arbitrary (non-dyadic) models too.
  // (An O(n) form exists — H = offset - 0.5 sum m_i C_i - sum h_i m_i —
  // but its different rounding perturbs seed-sensitive trajectories.)
  energy_ = model_->energy(m);
}

double LocalFieldState::flip(Spins& m, std::size_t i) {
  const double delta = flip_delta(m, i);
  m[i] = static_cast<std::int8_t>(-m[i]);
  const auto mi = static_cast<double>(m[i]);  // new value of spin i
  // m_i went from -mi to mi, so C_j = sum J_jl m_l shifts by 2 J_ij mi.
  if (dense_rows_) {
    // C_j += (2 J_ij) mi over the whole dense row, neighbours or not. This
    // leaves C[] bit-identical to the CSR scatter below: a non-neighbour
    // (J_ij == 0, the diagonal included) adds ±0.0, and x + ±0.0 == x for
    // every x except -0.0. C_j is never -0.0: reset() builds it from sums
    // that start at +0.0, and a round-to-nearest sum is -0.0 only when
    // both addends are, so neither reset() nor a flip can produce one.
    // (2 J) mi is exact, so the product matches the scatter's too.
    const std::size_t size = n();
    const double* row = model_->row(i).data();
    double* c = coupling_in_.data();
    const util::F64x4 two_mi = util::F64x4::broadcast(2.0 * mi);
    const std::size_t size4 = size & ~std::size_t{3};
    std::size_t j = 0;
    for (; j < size4; j += 4) {
      const util::F64x4 cj = util::F64x4::load(c + j) +
                             util::F64x4::load(row + j) * two_mi;
      cj.store(c + j);
    }
    for (; j < size; ++j) c[j] += row[j] * (2.0 * mi);
  } else {
    const auto nbr = adjacency_->neighbors(i);
    const auto w = adjacency_->weights(i);
    for (std::size_t k = 0; k < nbr.size(); ++k) {
      coupling_in_[nbr[k]] += 2.0 * w[k] * mi;
    }
  }
  energy_ += delta;
  return delta;
}

}  // namespace saim::ising
