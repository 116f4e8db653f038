// Classical single-spin-flip Metropolis simulated annealing on an Ising
// model. Serves two roles:
//   * an alternative SAIM inner solver (backend), demonstrating the
//     "any programmable IM" claim with different acceptance dynamics, and
//   * the engine behind the penalty-method baseline of Table II when a
//     Metropolis (rather than Gibbs) sampler is requested.
#pragma once

#include <memory>

#include "anneal/backend.hpp"
#include "ising/adjacency.hpp"
#include "pbit/schedule.hpp"

namespace saim::anneal {

struct SaOptions {
  std::size_t sweeps = 1000;
  bool track_best = true;
};

class MetropolisSa {
 public:
  /// Model must outlive the annealer; builds the coupling CSR once.
  explicit MetropolisSa(const ising::IsingModel& model);

  /// One annealing run from a uniform random state.
  RunResult run(const pbit::Schedule& schedule, const SaOptions& options,
                util::Xoshiro256pp& rng) const;

  /// One annealing run continuing from `start`.
  RunResult run_from(ising::Spins start, const pbit::Schedule& schedule,
                     const SaOptions& options, util::Xoshiro256pp& rng) const;

  /// Bound model / CSR — shared with the bit-sliced batch path so it runs
  /// over the exact same couplings and live fields as the scalar sweeps.
  [[nodiscard]] const ising::IsingModel& model() const noexcept {
    return *model_;
  }
  [[nodiscard]] const ising::Adjacency& adjacency() const noexcept {
    return adjacency_;
  }

 private:
  const ising::IsingModel* model_;
  ising::Adjacency adjacency_;
};

/// Backend adapter for SAIM.
class MetropolisSaBackend final : public IsingSolverBackend {
 public:
  MetropolisSaBackend(pbit::Schedule schedule, std::size_t sweeps,
                      bool track_best = true);

  void bind(const ising::IsingModel& model) override;
  RunResult run(util::Xoshiro256pp& rng) override;
  /// Batches of kBitsliceMinReplicas+ replicas dispatch to the bit-sliced
  /// engine — same per-replica results, one word-parallel pass.
  std::vector<RunResult> run_batch(util::Xoshiro256pp& rng,
                                   std::size_t replicas) override;
  [[nodiscard]] std::size_t sweeps_per_run() const override {
    return options_.sweeps;
  }
  [[nodiscard]] std::string name() const override { return "metropolis-sa"; }
  /// run_from gives Metropolis SA a native seeded path.
  [[nodiscard]] bool supports_initial_states() const noexcept override {
    return true;
  }

 private:
  [[nodiscard]] ising::SliceOptions slice_options(
      std::span<const double> betas) const noexcept;

  pbit::Schedule schedule_;
  SaOptions options_;
  std::unique_ptr<MetropolisSa> sa_;
  std::size_t model_n_ = 0;  ///< spin count of the bound model (seed checks)
};

}  // namespace saim::anneal
