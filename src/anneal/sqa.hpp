// Simulated Quantum Annealing (SQA) — path-integral Monte Carlo over M
// Trotter slices, the quantum-inspired algorithm behind several of the
// hardware annealers the paper benchmarks against (D-Wave-style transverse
// field annealing in software, also offered by Fujitsu's ecosystem).
//
// Effective classical Hamiltonian of the M-slice system at temperature
// 1/beta with transverse field Gamma:
//
//   H_eff = (1/M) sum_k H(m^k)  -  J_perp(Gamma) sum_k sum_i m_i^k m_i^{k+1}
//   J_perp = -(1/(2 beta)) ln tanh(beta Gamma / M)      (>0 for Gamma > 0)
//
// with periodic slices (k+1 mod M). Annealing lowers Gamma from gamma_start
// toward ~0, strengthening the inter-slice ferromagnetic coupling until all
// slices agree on one classical state. Readout is the best slice by
// classical energy. Implements IsingSolverBackend, so SAIM can run on it.
#pragma once

#include <memory>

#include "anneal/backend.hpp"
#include "ising/adjacency.hpp"

namespace saim::anneal {

struct SqaOptions {
  std::size_t trotter_slices = 16;
  double beta = 5.0;          ///< fixed inverse temperature of the bath
  double gamma_start = 3.0;   ///< initial transverse field
  double gamma_end = 0.01;    ///< final transverse field (> 0)
  std::size_t sweeps = 1000;  ///< full-system sweeps over all slices
};

class SimulatedQuantumAnnealer {
 public:
  SimulatedQuantumAnnealer(const ising::IsingModel& model,
                           SqaOptions options);

  /// One SQA run from random slices. `last` is the best slice by
  /// classical energy at the end of the run. `sweeps` accounts
  /// slices * sweeps classical-sweep equivalents.
  RunResult run(util::Xoshiro256pp& rng) const;

  [[nodiscard]] const SqaOptions& options() const noexcept {
    return options_;
  }

  /// Inter-slice coupling for a given transverse field (exposed for tests).
  [[nodiscard]] double perp_coupling(double gamma) const;

 private:
  const ising::IsingModel* model_;
  ising::Adjacency adjacency_;
  SqaOptions options_;
};

class SqaBackend final : public IsingSolverBackend {
 public:
  explicit SqaBackend(SqaOptions options);

  void bind(const ising::IsingModel& model) override;
  RunResult run(util::Xoshiro256pp& rng) override;
  std::vector<RunResult> run_batch(util::Xoshiro256pp& rng,
                                   std::size_t replicas) override;
  [[nodiscard]] std::size_t sweeps_per_run() const override {
    return options_.trotter_slices * options_.sweeps;
  }
  [[nodiscard]] std::string name() const override { return "sqa"; }

 private:
  SqaOptions options_;
  std::unique_ptr<SimulatedQuantumAnnealer> sqa_;
};

}  // namespace saim::anneal
