#include "ising/local_field.hpp"

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

void LocalFieldState::scatter_flip(std::size_t i, double mi) {
  const auto nbr = adjacency_->neighbors(i);
  const auto w = adjacency_->weights(i);
  for (std::size_t k = 0; k < nbr.size(); ++k) {
    coupling_in_[nbr[k]] += 2.0 * w[k] * mi;
  }
}

}  // namespace saim::ising
