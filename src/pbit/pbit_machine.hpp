// Software emulation of a probabilistic-bit (p-bit) Ising machine,
// following Camsari et al. and the paper's section III-B.
//
// Each p-bit i computes its input (eq. 9)
//     I_i = sum_j J_ij m_j + h_i
// and updates its state (eq. 10)
//     m_i = sign( tanh(beta * I_i) + rand(-1, 1) )
// Sequential updates of (9)-(10) implement Gibbs sampling of the Boltzmann
// distribution P{m} ∝ exp(-beta * H{m}) (eq. 11) — verified by the
// chi-square tests in tests/pbit_boltzmann_test.cpp.
//
// A sweep visits the spins in blocks of 4, through one block body compiled
// once per SweepOrder. It draws the block's 4 uniforms first, in the order
// a one-spin-at-a-time loop would, then decides all 4 visits with one
// masked tanh test (util::tanh_sign_neg4): each lane reads its row of a
// 257-row table bracketing libm's tanh, and only the lanes the bracket
// leaves ambiguous call std::tanh (0.07% of lanes, in 0.3% of blocks, over
// the QKP-200 paper runs). The first visit whose decision
// disagrees with its spin flips, through LocalFieldState (a dense-row axpy
// on the paper's fully coupled Lagrangian models), and only the later
// visits are re-decided against the updated inputs. Every visit thus sees
// the field and the draw of the sequential loop, and every decision equals
// the libm one, so trajectories are bit-identical to it. In kSequential
// order, the paper's, a full block reads C[], h[] and its spins
// contiguously at its first spin; the tail block and the random orders
// load through util::gather4.
//
// The machine keeps a reference to its IsingModel: SAIM's lambda updates
// rewrite only the model's fields h between runs, which the machine reads
// live, while the coupling CSR (built once) stays valid.
#pragma once

#include <cstddef>
#include <functional>

#include "ising/adjacency.hpp"
#include "ising/ising_model.hpp"
#include "ising/local_field.hpp"
#include "pbit/schedule.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"

namespace saim::pbit {

/// Order in which spins are updated within one Monte-Carlo sweep (MCS).
enum class SweepOrder {
  kSequential,  ///< 0,1,...,n-1 — the paper's choice ("sequentially updating")
  kRandomPermutation,  ///< fresh random permutation each sweep
  kRandomUniform,      ///< n independent uniform picks per sweep (may repeat)
};

struct AnnealOptions {
  std::size_t sweeps = 1000;  ///< MCS per run (paper Table I: 1000)
  SweepOrder order = SweepOrder::kSequential;
  bool track_best = false;  ///< also record the lowest-energy state visited

  /// Cooperative stop, polled every `stop_interval` sweeps (never inside a
  /// sweep). On stop the run returns its current state as a valid partial
  /// sample with `sweeps` reflecting the MCS actually performed. Null (the
  /// default) keeps the anneal loop check-free.
  const util::StopToken* stop = nullptr;
  std::size_t stop_interval = util::kStopPollInterval;
};

struct AnnealResult {
  ising::Spins last;         ///< state after the final sweep (paper reads this)
  double last_energy = 0.0;  ///< H(last)
  ising::Spins best;         ///< lowest-energy state seen (if track_best)
  double best_energy = 0.0;  ///< H(best)
  std::size_t sweeps = 0;    ///< MCS actually performed
};

class PBitMachine {
 public:
  /// The model must outlive the machine. Builds the coupling CSR once.
  explicit PBitMachine(const ising::IsingModel& model);

  [[nodiscard]] std::size_t n() const noexcept { return model_->n(); }

  /// Runs one annealed Gibbs-sampling run from a fresh random state.
  AnnealResult anneal(const Schedule& schedule, const AnnealOptions& options,
                      util::Xoshiro256pp& rng) const;

  /// As above but continues from `start` (used by warm-restart ablation).
  AnnealResult anneal_from(ising::Spins start, const Schedule& schedule,
                           const AnnealOptions& options,
                           util::Xoshiro256pp& rng) const;

  /// Equilibrium sampling at fixed beta: performs `burn_in` sweeps, then
  /// calls `observer(state)` after each of `samples` further sweeps.
  /// Used by distribution tests and by diagnostics.
  void sample(double beta, std::size_t burn_in, std::size_t samples,
              util::Xoshiro256pp& rng,
              const std::function<void(const ising::Spins&)>& observer) const;

  /// Uniform random ±1 configuration.
  ising::Spins random_state(util::Xoshiro256pp& rng) const;

  /// p-bit input I_i for the current state (eq. 9), via the CSR.
  [[nodiscard]] double input(const ising::Spins& m, std::size_t i) const {
    return adjacency_.coupling_input(m, i) + model_->field(i);
  }

 private:
  /// One Monte-Carlo sweep at inverse temperature beta, 4 visits per
  /// block, in `order` (dispatched once per sweep to the block kernel
  /// specialised for it). Reads the p-bit inputs from the incremental
  /// engine (O(1) per visit) and pushes flips back through it; `lfs`
  /// tracks the running energy.
  void sweep(ising::Spins& m, ising::LocalFieldState& lfs, double beta,
             SweepOrder order, util::Xoshiro256pp& rng,
             std::vector<std::uint32_t>& scratch) const;

  const ising::IsingModel* model_;
  ising::Adjacency adjacency_;
};

}  // namespace saim::pbit
