// Compressed-sparse-row view of an Ising coupling matrix.
//
// The dense IsingModel rows make model construction simple, but Monte-Carlo
// sweeps only need each spin's nonzero neighbours, and on sparse models
// (spin glasses, max-cut graphs) a CSR scan touches a small fraction of a
// dense row. The paper's Lagrangian models are not sparse: the penalty
// P*|g|^2 couples every pair of items, so every row has n-1 neighbours
// whatever the QKP density (209-212 on the eight QKP-200 instances), and
// LocalFieldState applies flips on such models through the dense rows
// instead. The CSR is built once per SAIM run: lambda updates change only
// the fields h (see ising/convert.hpp), never the couplings, so the
// adjacency stays valid across all K outer iterations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ising/ising_model.hpp"
#include "util/simd.hpp"

namespace saim::ising {

class Adjacency {
 public:
  Adjacency() = default;

  /// Builds CSR from the model's nonzero couplings (both directions stored).
  explicit Adjacency(const IsingModel& model);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return weights_.size() / 2;
  }

  [[nodiscard]] std::span<const std::uint32_t> neighbors(
      std::size_t i) const noexcept {
    return {indices_.data() + offsets_[i],
            offsets_[i + 1] - offsets_[i]};
  }
  [[nodiscard]] std::span<const double> weights(std::size_t i) const noexcept {
    return {weights_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  /// Coupling contribution sum_j J_ij m_j for spin i. O(deg(i)).
  ///
  /// Vectorized with the portable SIMD shim: four independent accumulators
  /// over the CSR row, folded as (a0+a1)+(a2+a3), then a sequential scalar
  /// tail. The summation order is fixed by this definition — identical for
  /// the AVX2/NEON and scalar-emulation builds. It is the reference every
  /// engine's coupling inputs follow: PBitMachine::input and the recompute
  /// engines call it per visit, and coupling_inputs() (run start) computes
  /// the same sums for all rows at once, pinned against it bit for bit.
  [[nodiscard]] double coupling_input(std::span<const std::int8_t> m,
                                      std::size_t i) const noexcept {
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

  /// All n coupling inputs at once, as LocalFieldState::reset needs
  /// them: out[i] = coupling_input(m, i), bit for bit. O(sum deg). The
  /// spins are converted to doubles once; on a row of degree n-1 (every
  /// row of a Lagrangian model) the k-th CSR entry is column k + (k >= i),
  /// so the 4-lane blocks read the spin doubles as contiguous slices,
  /// shifted by one past the diagonal, instead of gathering int8 spins one
  /// entry at a time, four such rows side by side. Lanes, their order,
  /// the fold and the scalar tail are coupling_input's. Rows outside a
  /// run of four complete rows call coupling_input. Keeps no state:
  /// concurrent calls on one adjacency are safe.
  void coupling_inputs(std::span<const std::int8_t> m,
                       std::span<double> out) const;

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> offsets_;    ///< n+1 entries
  std::vector<std::uint32_t> indices_;  ///< neighbour spin ids
  std::vector<double> weights_;         ///< matching J_ij values
};

}  // namespace saim::ising
