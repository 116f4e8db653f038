// Replica-exchange Monte Carlo (parallel tempering) on an Ising model.
//
// This is the software stand-in for the paper's PT-DA baseline [17]: a
// parallel-tempering algorithm with 26 replicas executed on Fujitsu's
// Digital Annealer. Replicas run Metropolis sweeps at a geometric ladder of
// inverse temperatures; neighbouring replicas exchange configurations with
// the standard acceptance  min(1, exp((beta_a - beta_b)(E_a - E_b))).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "anneal/backend.hpp"
#include "ising/adjacency.hpp"
#include "ising/local_field.hpp"

namespace saim::anneal {

struct PtOptions {
  std::size_t replicas = 26;  ///< paper [17] uses 26 replicas
  double beta_min = 0.1;      ///< hottest replica
  double beta_max = 10.0;     ///< coldest replica
  std::size_t sweeps = 1000;  ///< Metropolis sweeps per replica per run
  std::size_t swap_interval = 10;  ///< sweeps between exchange attempts
};

class ParallelTempering {
 public:
  ParallelTempering(const ising::IsingModel& model, PtOptions options);

  /// One PT run from fresh random replicas. `last` is the final state of
  /// the coldest replica. sweeps() accounts replicas * sweeps MCS.
  RunResult run(util::Xoshiro256pp& rng) const;

  [[nodiscard]] const PtOptions& options() const noexcept { return options_; }

  /// Geometric inverse-temperature ladder; index 0 = hottest.
  [[nodiscard]] std::vector<double> ladder() const;

  /// Fraction of accepted exchange attempts in the most recent run()
  /// (diagnostic for ladder quality; under concurrent runs it reports
  /// whichever run stored last).
  [[nodiscard]] double last_swap_acceptance() const noexcept {
    return last_swap_acceptance_.load(std::memory_order_relaxed);
  }

 private:
  void metropolis_sweep(ising::Spins& m, ising::LocalFieldState& lfs,
                        double beta, util::Xoshiro256pp& rng) const;

  const ising::IsingModel* model_;
  ising::Adjacency adjacency_;
  PtOptions options_;
  mutable std::atomic<double> last_swap_acceptance_{0.0};
};

/// Backend adapter so SAIM (or the penalty driver) can run on PT.
class ParallelTemperingBackend final : public IsingSolverBackend {
 public:
  explicit ParallelTemperingBackend(PtOptions options);

  void bind(const ising::IsingModel& model) override;
  RunResult run(util::Xoshiro256pp& rng) override;
  std::vector<RunResult> run_batch(util::Xoshiro256pp& rng,
                                   std::size_t replicas) override;
  [[nodiscard]] std::size_t sweeps_per_run() const override {
    return options_.replicas * options_.sweeps;
  }
  [[nodiscard]] std::string name() const override {
    return "parallel-tempering";
  }

 private:
  PtOptions options_;
  std::unique_ptr<ParallelTempering> pt_;
};

}  // namespace saim::anneal
