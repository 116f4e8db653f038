// Multi-start orchestration: run several independent SAIM solves with
// derived seeds and aggregate. This is what the paper's tables do per
// instance (and what the bench harnesses previously hand-rolled); exposing
// it in the library gives downstream users statistically meaningful
// results (mean/quartiles over restarts, pooled best) in one call.
#pragma once

#include <functional>
#include <memory>

#include "anneal/backend.hpp"
#include "core/result.hpp"
#include "core/saim_solver.hpp"
#include "problems/constrained_problem.hpp"
#include "util/stats.hpp"

namespace saim::core {

/// Creates a fresh inner-solver backend per restart. Backends keep state
/// (bound model, warm-restart state), so restarts must not share one. With
/// threads > 1 the factory (and the evaluator passed to
/// multi_start_saim) are invoked concurrently and must be thread-safe —
/// the in-repo factories and evaluators, which only read shared problem
/// data, all are.
using BackendFactory =
    std::function<std::unique_ptr<anneal::IsingSolverBackend>()>;

struct MultiStartOptions {
  std::size_t restarts = 5;
  std::uint64_t seed = 1;  ///< master seed; restart r uses derive_seed(seed, r)
  /// Worker threads for the restarts (0 = all hardware threads). Restart r
  /// depends only on derive_seed(seed, r) and results are aggregated in
  /// restart order, so the outcome is bit-identical for any thread count.
  std::size_t threads = 1;
};

struct MultiStartResult {
  SolveResult best;  ///< the restart with the lowest best feasible cost
  std::size_t best_restart = 0;
  /// Best-cost statistics across restarts that found a feasible solution.
  util::RunningStats restart_best_costs;
  std::size_t feasible_restarts = 0;
  std::size_t total_sweeps = 0;

  [[nodiscard]] bool any_feasible() const noexcept {
    return feasible_restarts > 0;
  }
};

MultiStartResult multi_start_saim(
    const problems::ConstrainedProblem& problem, const BackendFactory& make,
    const SaimOptions& options, const MultiStartOptions& multi,
    const SampleEvaluator& evaluate = nullptr);

}  // namespace saim::core
