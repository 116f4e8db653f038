#include "core/penalty_method.hpp"

#include <algorithm>

#include "lagrange/lagrangian_model.hpp"

namespace saim::core {

SolveResult solve_penalty_method(const problems::ConstrainedProblem& problem,
                                 anneal::IsingSolverBackend& backend,
                                 const PenaltyOptions& options,
                                 const SampleEvaluator& evaluate) {
  SaimOptions saim;
  saim.iterations = options.runs;
  saim.eta = 0.0;  // no multiplier adaptation: pure penalty method
  saim.penalty = options.penalty;
  saim.penalty_alpha = options.penalty_alpha;
  saim.seed = options.seed;
  saim.record_history = options.record_history;
  SaimSolver solver(problem, backend, saim);
  return solver.solve(evaluate);
}

PenaltyTuningResult tune_penalty(const problems::ConstrainedProblem& problem,
                                 anneal::IsingSolverBackend& backend,
                                 const PenaltyTuningOptions& options,
                                 const SampleEvaluator& evaluate) {
  PenaltyTuningResult result;
  double best_feasibility = -1.0;

  for (std::size_t rung = 0; rung < options.alpha_ladder.size(); ++rung) {
    const double alpha = options.alpha_ladder[rung];
    PenaltyOptions probe;
    probe.runs = options.probe_runs;
    probe.penalty_alpha = alpha;
    probe.seed = options.seed + rung;  // fresh stream per probe
    const SolveResult r =
        solve_penalty_method(problem, backend, probe, evaluate);
    const double feasibility = r.feasibility_rate();
    result.probes.emplace_back(alpha, feasibility);
    result.total_sweeps += r.total_sweeps;

    if (feasibility > best_feasibility) {
      best_feasibility = feasibility;
      result.alpha = alpha;
      result.feasibility = feasibility;
    }
    if (feasibility >= options.target_feasibility) {
      result.alpha = alpha;
      result.feasibility = feasibility;
      break;
    }
  }
  result.penalty = lagrange::heuristic_penalty(problem, result.alpha);
  return result;
}

SampleEvaluator make_qkp_evaluator(const problems::QkpInstance& instance) {
  return [&instance](std::span<const std::uint8_t> x) {
    SampleVerdict v;
    const auto decision = x.first(instance.n());
    v.feasible = instance.feasible(decision);
    v.cost = static_cast<double>(instance.cost(decision));
    return v;
  };
}

SampleEvaluator make_mkp_evaluator(const problems::MkpInstance& instance) {
  return [&instance](std::span<const std::uint8_t> x) {
    SampleVerdict v;
    const auto decision = x.first(instance.n());
    v.feasible = instance.feasible(decision);
    v.cost = static_cast<double>(instance.cost(decision));
    return v;
  };
}

}  // namespace saim::core
