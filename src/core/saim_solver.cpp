#include "core/saim_solver.hpp"

#include <stdexcept>
#include <utility>

#include "ising/convert.hpp"
#include "lagrange/lagrangian_model.hpp"

namespace saim::core {

double effective_penalty(const problems::ConstrainedProblem& problem,
                         const SaimOptions& options) {
  return options.penalty >= 0.0
             ? options.penalty
             : lagrange::heuristic_penalty(problem, options.penalty_alpha);
}

// ------------------------------------------------------------- DualAscent

DualAscent::DualAscent(const problems::ConstrainedProblem& problem,
                       SaimOptions options, SampleEvaluator evaluate,
                       util::StopToken stop)
    : problem_(&problem),
      options_(options),
      judge_(evaluate ? std::move(evaluate)
                      : make_equality_evaluator(problem)),
      stop_(std::move(stop)),
      rng_(options.seed),
      lambda_(problem.num_constraints(), 0.0) {
  if (options_.iterations == 0) {
    throw std::invalid_argument("SaimSolver: iterations must be positive");
  }
  if (options_.record_history) result_.history.reserve(options_.iterations);
}

void DualAscent::finalize(Status status) {
  // A stop that fired during the final inner run (truncating it) exits
  // without being re-polled at the top of a step; without this promotion
  // the result would claim kCompleted while being timing-dependent — and
  // downstream caches would replay it. Conservatively mark any solve that
  // observed a stop as stopped.
  if (status == Status::kCompleted && stop_.stop_requested()) {
    status = stop_.cancelled() ? Status::kCancelled : Status::kDeadline;
  }
  result_.status = status;
  finished_ = true;
}

bool DualAscent::step(lagrange::LagrangianModel& model,
                      anneal::IsingSolverBackend& backend) {
  if (finished_) return true;

  // Cooperative stop, polled once per outer iteration so the inner
  // Monte-Carlo loop stays unchanged. Everything gathered so far stays in
  // the (partial) result.
  if (stop_.stop_requested()) {
    finalize(stop_.cancelled() ? Status::kCancelled : Status::kDeadline);
    return true;
  }
  if (k_ >= options_.iterations) {
    finalize(Status::kCompleted);
    return true;
  }

  // (Re-)shape the landscape for THIS job's multipliers. set_lambda is a
  // pure rebuild from base coefficients, so the lambda an earlier job left
  // on a reused model is invisible here.
  model.set_lambda(lambda_);
  backend.fields_updated();
  backend.set_stop_token(stop_);

  // Minimize L_k with the Ising machine; read the measured sample(s).
  // replicas == 1 keeps the paper's single run() call (and its exact RNG
  // stream); replicas > 1 fans out through the backend's run_batch.
  std::vector<anneal::RunResult> runs;
  if (options_.replicas > 1) {
    runs = backend.run_batch(rng_, options_.replicas);
  } else {
    runs.push_back(backend.run(rng_));
  }
  if (runs.empty()) {
    // The batch refused to start because the stop fired in between.
    finalize(stop_.cancelled() ? Status::kCancelled : Status::kDeadline);
    return true;
  }

  // Judge every replica's last sample against the original problem; guide
  // the lambda update with the lowest-energy one.
  std::size_t guide = 0;
  ising::Bits x;
  SampleVerdict verdict;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const auto& run = runs[r];
    const ising::Bits xr = ising::spins_to_bits(run.last);
    const SampleVerdict v = judge_(xr);
    if (v.feasible) {
      ++result_.feasible_count;
      result_.found_feasible = true;
      result_.feasible_cost_stats.add(v.cost);
      if (options_.collect_feasible_costs) {
        result_.feasible_costs.push_back(v.cost);
      }
      if (v.cost < result_.best_cost) {
        result_.best_cost = v.cost;
        result_.best_x.assign(xr.begin(),
                              xr.begin() + static_cast<std::ptrdiff_t>(
                                               problem_->num_decision()));
      }
    }

    if (r == 0 || run.last_energy < runs[guide].last_energy) {
      guide = r;
      x = xr;
      verdict = v;
    }
  }

  // Subgradient ascent on the dual: lambda <- lambda + eta g(x_k).
  const std::vector<double> g = problem_->constraint_values(x);
  if (options_.record_history) {
    IterationRecord rec;
    rec.iteration = k_;
    rec.sample_cost = verdict.cost;
    rec.feasible = verdict.feasible;
    rec.lagrangian_energy = model.lagrangian(x);
    rec.max_violation = problem_->max_violation(x);
    rec.lambda = lambda_;
    result_.history.push_back(std::move(rec));
  }
  for (std::size_t m = 0; m < lambda_.size(); ++m) {
    lambda_[m] += options_.eta * g[m];
  }

  for (const auto& run : runs) result_.total_sweeps += run.sweeps;
  result_.total_runs += runs.size();
  ++k_;
  if (k_ >= options_.iterations) {
    finalize(Status::kCompleted);
    return true;
  }
  return false;
}

// ------------------------------------------------------------- SaimSolver

SaimSolver::SaimSolver(const problems::ConstrainedProblem& problem,
                       anneal::IsingSolverBackend& backend,
                       SaimOptions options)
    : problem_(&problem),
      backend_(&backend),
      options_(options),
      model_(problem, effective_penalty(problem, options)) {
  backend_->bind(model_.ising());
}

SolveResult SaimSolver::solve(const SampleEvaluator& evaluate) {
  return solve(evaluate, util::StopToken{});
}

namespace {
/// Restores the backend's idle (never-stopping) token even on exceptions.
struct BackendStopGuard {
  anneal::IsingSolverBackend* backend;
  ~BackendStopGuard() { backend->set_stop_token(util::StopToken{}); }
};
}  // namespace

SolveResult SaimSolver::solve(const SampleEvaluator& evaluate,
                              util::StopToken stop) {
  BackendStopGuard stop_guard{backend_};
  DualAscent ascent(*problem_, options_, evaluate, std::move(stop));
  while (!ascent.step(model_, *backend_)) {
  }
  return std::move(ascent.result());
}

SampleEvaluator make_equality_evaluator(
    const problems::ConstrainedProblem& problem, double tol) {
  return [&problem, tol](std::span<const std::uint8_t> x) {
    SampleVerdict v;
    v.feasible = problem.max_violation(x) <= tol;
    v.cost = problem.objective_value(x);
    return v;
  };
}

}  // namespace saim::core
