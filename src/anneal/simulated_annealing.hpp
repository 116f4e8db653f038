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
#include "util/stop_token.hpp"

namespace saim::anneal {

struct SaOptions {
  std::size_t sweeps = 1000;

  /// Cooperative stop, polled every util::kStopPollInterval sweeps (never
  /// inside a sweep), as in pbit::AnnealOptions. On stop the run returns
  /// its current state as a valid partial sample with `sweeps` reflecting
  /// the MCS actually performed. The poll draws no random numbers, so a
  /// run that completes is bit-identical with or without a token.
  const util::StopToken* stop = nullptr;
};

class MetropolisSa {
 public:
  /// Model must outlive the annealer; builds its ising::Adjacency once.
  explicit MetropolisSa(const ising::IsingModel& model);

  /// One annealing run from a uniform random state.
  RunResult run(const pbit::Schedule& schedule, const SaOptions& options,
                util::Xoshiro256pp& rng) const;

  /// One annealing run continuing from `start`.
  RunResult run_from(ising::Spins start, const pbit::Schedule& schedule,
                     const SaOptions& options, util::Xoshiro256pp& rng) const;

 private:
  const ising::IsingModel* model_;
  ising::Adjacency adjacency_;
};

/// Backend adapter for SAIM.
class MetropolisSaBackend final : public IsingSolverBackend {
 public:
  MetropolisSaBackend(pbit::Schedule schedule, std::size_t sweeps);

  void bind(const ising::IsingModel& model) override;
  RunResult run(util::Xoshiro256pp& rng) override;
  /// Parallel replicas over run_replicas_parallel.
  std::vector<RunResult> run_batch(util::Xoshiro256pp& rng,
                                   std::size_t replicas) override;
  [[nodiscard]] std::size_t sweeps_per_run() const override {
    return options_.sweeps;
  }
  [[nodiscard]] std::string name() const override { return "metropolis-sa"; }

 private:
  pbit::Schedule schedule_;
  SaOptions options_;
  std::unique_ptr<MetropolisSa> sa_;
};

}  // namespace saim::anneal
