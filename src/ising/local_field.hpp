// Incremental local-field sweep engine — the shared numeric core of every
// Monte-Carlo backend in this repo.
//
// A sweep visits each spin and needs its p-bit input (paper eq. 9)
//     I_i = sum_j J_ij m_j + h_i .
// Recomputing the coupling part with a row scan on every visit costs
// O(sum_i deg(i)) per sweep even when almost nothing flips — which is
// exactly the regime late-anneal betas live in. LocalFieldState instead
// keeps the coupling inputs  C_i = sum_j J_ij m_j  as persistent state:
//
//   * reset(m)  rebuilds C[] (Adjacency::coupling_inputs) and the start
//     energy (IsingModel::energy) — once per run, not once per visit.
//     Both are O(n^2) on the dense Lagrangian, so each reads contiguous
//     4-lane slices: C[] from J's rows against the spins converted to
//     doubles once, the energy 8 rows at a time. On a short serving
//     run (30 MCS) this start-up is a large share of the run;
//   * flip(m,i) flips spin i and pushes the change to its neighbours'
//     C_j in O(deg(i)) — so a sweep costs O(n + flips * deg) instead of
//     O(sum deg).
//
// Dense rows. Every row of the Lagrangian Ising model has n-1 neighbours
// (the penalty P*|g|^2 couples every pair of items), where a CSR scatter
// does an index load and a dependent store per entry. On a dense adjacency
// (Adjacency::dense(): the nonzeros fill at least 30% of the n*n matrix)
// flip() instead walks the model's contiguous dense row J[i][*] as a
// 4-lane axpy over all of C[]. The adjacency makes that choice once, at
// construction, and holds no CSR then; the engine caches the base of the
// model's row-major J from it (Adjacency::dense_rows()), so a flip is an
// inline loop with no call and no bounds check. It does not change one
// bit of C[] (see flip()).
//
// The field part h_i is read live from the bound IsingModel on every
// field() call: SAIM's lambda updates rewrite only h between runs
// (see ising/adjacency.hpp), so the incremental state never goes stale
// across outer iterations and backends need no refresh in
// fields_updated().
//
// All updates are plain additions of the same J_ij m_j terms the
// recompute path sums, so for models whose couplings, fields and partial
// sums are exactly representable (e.g. dyadic rationals — the parity
// tests use these) the engine's trajectory is bit-identical to the
// recompute-every-visit implementation it replaced.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ising/adjacency.hpp"
#include "ising/ising_model.hpp"
#include "util/simd.hpp"

namespace saim::ising {

class LocalFieldState {
 public:
  LocalFieldState() = default;

  /// Borrows `model` and `adjacency` (both must outlive the engine; the
  /// adjacency must have been built from the model). Backends already own
  /// one Adjacency per bound model and share it across replicas/slices.
  /// flip() walks dense rows exactly when the adjacency is dense().
  LocalFieldState(const IsingModel& model, const Adjacency& adjacency)
      : model_(&model),
        adjacency_(&adjacency),
        coupling_in_(model.n(), 0.0),
        dense_j_(adjacency.dense_rows()) {}

  [[nodiscard]] std::size_t n() const noexcept { return coupling_in_.size(); }

  /// Rebuilds the coupling inputs with Adjacency::coupling_inputs (bit for
  /// bit the per-row coupling_input sums) and the tracked energy with
  /// IsingModel::energy (the row-by-row sum of the pre-engine backends,
  /// bit for bit). Both are vectorized O(sum deg) / O(n^2) passes and keep
  /// no scratch outside this engine, so replicas sharing one model and
  /// adjacency may reset concurrently. Call once per run (or after
  /// externally replacing the state, e.g. a restart).
  void reset(const Spins& m);

  /// p-bit input I_i = C_i + h_i for the state last synced via
  /// reset()/flip(). O(1).
  [[nodiscard]] double field(std::size_t i) const noexcept {
    return coupling_in_[i] + model_->fields()[i];
  }

  /// The coupling inputs C[] of the synced state — with the model's
  /// fields() span, what a blocked sweep reads to form four inputs at once.
  [[nodiscard]] std::span<const double> coupling_inputs() const noexcept {
    return coupling_in_;
  }

  /// Energy change of flipping spin i in the synced state: dH = 2 m_i I_i.
  [[nodiscard]] double flip_delta(const Spins& m,
                                  std::size_t i) const noexcept {
    return 2.0 * static_cast<double>(m[i]) * field(i);
  }

  /// Flips m[i], updates the neighbours' coupling inputs in O(deg(i)) (a
  /// CSR scatter, or an O(n) dense-row axpy when the adjacency is dense) and
  /// the tracked energy. Returns the energy change dH.
  double flip(Spins& m, std::size_t i) {
    const double delta = flip_delta(m, i);
    m[i] = static_cast<std::int8_t>(-m[i]);
    const auto mi = static_cast<double>(m[i]);  // new value of spin i
    // m_i went from -mi to mi, so C_j = sum J_jl m_l shifts by 2 J_ij mi.
    if (dense_j_ != nullptr) {
      // C_j += (2 J_ij) mi over the whole dense row, neighbours or not.
      // This leaves C[] bit-identical to the CSR scatter: a non-neighbour
      // (J_ij == 0, the diagonal included) adds ±0.0, and x + ±0.0 == x
      // for every x except -0.0. C_j is never -0.0: reset() builds it from
      // sums that start at +0.0, and a round-to-nearest sum is -0.0 only
      // when both addends are, so neither reset() nor a flip can produce
      // one. (2 J) mi is exact, so the product matches the scatter's too.
      const std::size_t size = n();
      const double* row = dense_j_ + i * size;
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
      scatter_flip(i, mi);
    }
    energy_ += delta;
    return delta;
  }

  /// Hamiltonian of the synced state, maintained incrementally.
  [[nodiscard]] double energy() const noexcept { return energy_; }

  /// PT replica exchange swaps whole configurations; swapping the engines
  /// alongside the states keeps both consistent in O(1).
  friend void swap(LocalFieldState& a, LocalFieldState& b) noexcept {
    std::swap(a.model_, b.model_);
    std::swap(a.adjacency_, b.adjacency_);
    a.coupling_in_.swap(b.coupling_in_);
    std::swap(a.energy_, b.energy_);
    std::swap(a.dense_j_, b.dense_j_);
  }

 private:
  /// flip()'s CSR branch: C_j += 2 J_ij mi over the neighbours of i.
  void scatter_flip(std::size_t i, double mi);

  const IsingModel* model_ = nullptr;
  const Adjacency* adjacency_ = nullptr;
  std::vector<double> coupling_in_;  ///< C_i = sum_j J_ij m_j
  double energy_ = 0.0;              ///< H(m) for the synced state
  /// The model's row-major J (row i at i * n) when flip() walks dense
  /// rows; null when it scatters through the CSR.
  const double* dense_j_ = nullptr;
};

}  // namespace saim::ising
