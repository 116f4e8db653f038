// Exact maps between the binary (QUBO) and ±1 (Ising) pictures.
//
// With x_i = (1 + m_i)/2:
//   E(x) = sum_{i<j} Q_ij x_i x_j + sum_i q_i x_i + c
// becomes H(m) = -sum_{i<j} J_ij m_i m_j - sum_i h_i m_i + offset with
//   J_ij    = -Q_ij / 4
//   h_i     = -(q_i/2 + sum_{j != i} Q_ij / 4)
//   offset  = c + sum_{i<j} Q_ij/4 + sum_i q_i/2
// so that H(m(x)) == E(x) for every configuration (tested exhaustively).
#pragma once

#include <cstdint>
#include <span>

#include "ising/ising_model.hpp"
#include "ising/qubo_model.hpp"

namespace saim::ising {

/// QUBO -> Ising, energy-preserving (H(m(x)) == E(x)).
IsingModel qubo_to_ising(const QuboModel& qubo);

/// Ising -> QUBO, energy-preserving (E(x(m)) == H(m)).
QuboModel ising_to_qubo(const IsingModel& ising);

/// x -> m with m_i = 2 x_i - 1.
Spins bits_to_spins(std::span<const std::uint8_t> x);

/// m -> x with x_i = (m_i + 1)/2.
Bits spins_to_bits(std::span<const std::int8_t> m);

}  // namespace saim::ising
