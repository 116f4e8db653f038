// Coupling view of an Ising model for the sweep engines: which spins each
// spin is coupled to, and the coupling sums C_i = sum_j J_ij m_j over them.
//
// Adjacency owns the dense/sparse choice, made once at construction from
// the model's nonzero count:
//
//   * Dense — the nonzeros fill at least 3/10 of the n*n matrix. The
//     paper's Lagrangian models are all dense: the penalty P*|g|^2 couples
//     every pair of items, so every row has n-1 neighbours whatever the QKP
//     density (n = 209-212 on the eight QKP-200 instances). A dense
//     adjacency keeps only the per-row degrees (O(n)) and borrows the
//     model's row-major J: the sums read J's rows directly, and
//     LocalFieldState applies flips as dense-row axpys (dense_rows()). It
//     copies no coupling, so the model must outlive the adjacency — as it
//     must already outlive every backend that holds one.
//   * Sparse — below that fill (spin glasses, max-cut graphs) a
//     compressed-sparse-row (CSR) table of each row's nonzeros, both
//     directions of every edge, touches a small fraction of a dense row.
//
// Both views sum each row over the same entries in the same order — the
// nonzeros of dense row i in ascending j — so the choice changes no bit of
// any C_i. The adjacency is built once per bound model: lambda updates
// change only the fields h (see ising/convert.hpp), never the couplings,
// so it stays valid across all K outer iterations of a SAIM run.
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

  /// Counts each row's nonzero couplings (entries not equal to 0.0, so
  /// ±0.0 is no coupling) and picks the view: dense when they fill at
  /// least 3/10 of n*n, else a CSR built from them. A dense adjacency
  /// borrows `model`'s couplings, which must outlive it and stay fixed.
  explicit Adjacency(const IsingModel& model);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }

  /// True when this adjacency reads the model's dense rows (see above).
  [[nodiscard]] bool dense() const noexcept { return dense_j_ != nullptr; }

  /// The bound model's row-major J (row i at i * n) when dense(), null for
  /// a sparse adjacency.
  [[nodiscard]] const double* dense_rows() const noexcept { return dense_j_; }

  [[nodiscard]] std::size_t edge_count() const noexcept {
    return offsets_.empty() ? 0 : offsets_[n_] / 2;
  }

  /// Number of nonzero couplings in row i, in either view.
  [[nodiscard]] std::size_t degree(std::size_t i) const noexcept {
    return offsets_[i + 1] - offsets_[i];
  }

  /// Row i of the CSR: its neighbours in ascending order and their weights.
  /// Sparse adjacencies only — a dense one stores no CSR (read row i of
  /// dense_rows() instead).
  [[nodiscard]] std::span<const std::uint32_t> neighbors(
      std::size_t i) const noexcept {
    return {indices_.data() + offsets_[i], degree(i)};
  }
  [[nodiscard]] std::span<const double> weights(std::size_t i) const noexcept {
    return {weights_.data() + offsets_[i], degree(i)};
  }

  /// Coupling contribution sum_j J_ij m_j for spin i. O(deg(i)), or O(n)
  /// on a dense row with exact zeros.
  ///
  /// Vectorized with the portable SIMD shim: four independent accumulators
  /// over the row's entries, folded as (a0+a1)+(a2+a3), then a sequential
  /// scalar tail. The entries are the row's nonzeros in ascending j (on a
  /// complete dense row, entry k is column k + (k >= i)). The summation
  /// order is fixed by this definition — identical for the AVX2/NEON and
  /// scalar-emulation builds and for both views. It is the reference every
  /// engine's coupling inputs follow: PBitMachine::input and the recompute
  /// engines call it per visit, and coupling_inputs() (run start) computes
  /// the same sums for all rows at once, pinned against it bit for bit.
  [[nodiscard]] double coupling_input(std::span<const std::int8_t> m,
                                      std::size_t i) const noexcept {
    if (dense_j_ != nullptr) return dense_coupling_input(m, i);
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
  /// them: out[i] = coupling_input(m, i), bit for bit. O(sum deg) sparse,
  /// O(n^2) dense. On a dense adjacency the spins are converted to doubles
  /// once, and four complete rows (degree n-1, every row of a Lagrangian
  /// model) are summed side by side: the 4-lane blocks read J's rows and
  /// the spin doubles as contiguous slices, shifted by one past each
  /// row's diagonal. Lanes, their order, the fold and the scalar tail are
  /// coupling_input's. Every other row calls coupling_input. Keeps no
  /// state: concurrent calls on one adjacency are safe.
  void coupling_inputs(std::span<const std::int8_t> m,
                       std::span<double> out) const;

 private:
  /// coupling_input on a dense adjacency, reading row i of J.
  [[nodiscard]] double dense_coupling_input(std::span<const std::int8_t> m,
                                            std::size_t i) const noexcept;

  std::size_t n_ = 0;
  std::vector<std::size_t> offsets_;    ///< n+1 entries: row i's degree is
                                        ///< offsets_[i+1] - offsets_[i]
  std::vector<std::uint32_t> indices_;  ///< sparse: neighbour spin ids
  std::vector<double> weights_;         ///< sparse: matching J_ij values
  const double* dense_j_ = nullptr;     ///< dense: the model's J, borrowed
};

}  // namespace saim::ising
