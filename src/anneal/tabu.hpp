// Tabu search on Ising models — a deterministic-moves, memory-based QUBO
// heuristic that is the standard software baseline in the Ising-machine
// literature (e.g. inside D-Wave's hybrid tooling). Included as a fourth
// interchangeable SAIM backend and as a strong unconstrained comparator.
//
// Classic single-flip tabu: each step flips the non-tabu spin with the
// best (possibly uphill) energy delta, marks it tabu for `tenure` steps,
// and allows tabu moves that beat the incumbent (aspiration criterion).
#pragma once

#include <memory>

#include "anneal/backend.hpp"
#include "ising/adjacency.hpp"

namespace saim::anneal {

struct TabuOptions {
  std::size_t steps = 1000;  ///< single-flip moves per run
  std::size_t tenure = 10;   ///< steps a flipped spin stays tabu
  /// Restart from a fresh random state when no improvement for this many
  /// steps (0 = never restart).
  std::size_t stall_limit = 200;
};

class TabuSearch {
 public:
  /// Model must outlive the search; its ising::Adjacency is built once.
  TabuSearch(const ising::IsingModel& model, TabuOptions options);

  RunResult run(util::Xoshiro256pp& rng) const;

  [[nodiscard]] const TabuOptions& options() const noexcept {
    return options_;
  }

 private:
  const ising::IsingModel* model_;
  ising::Adjacency adjacency_;
  TabuOptions options_;
};

class TabuBackend final : public IsingSolverBackend {
 public:
  explicit TabuBackend(TabuOptions options);

  void bind(const ising::IsingModel& model) override;
  RunResult run(util::Xoshiro256pp& rng) override;
  std::vector<RunResult> run_batch(util::Xoshiro256pp& rng,
                                   std::size_t replicas) override;
  /// One tabu step touches one spin; n steps ~ one Monte-Carlo sweep, so
  /// report steps/n (rounded up) as the sweep-equivalent for budget
  /// accounting.
  [[nodiscard]] std::size_t sweeps_per_run() const override;
  [[nodiscard]] std::string name() const override { return "tabu"; }

 private:
  TabuOptions options_;
  std::unique_ptr<TabuSearch> tabu_;
  std::size_t n_ = 0;
};

}  // namespace saim::anneal
