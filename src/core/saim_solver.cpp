#include "core/saim_solver.hpp"

#include <cmath>
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
                       util::StopToken stop,
                       std::vector<ising::Bits> warm_starts)
    : problem_(&problem),
      options_(options),
      judge_(evaluate ? std::move(evaluate)
                      : make_equality_evaluator(problem)),
      stop_(std::move(stop)),
      warm_starts_(std::move(warm_starts)),
      rng_(options.seed),
      lambda_(problem.num_constraints(), 0.0) {
  if (options_.record_history) result_.history.reserve(options_.iterations);
}

double DualAscent::step_size(std::size_t k) const noexcept {
  switch (options_.step_rule) {
    case StepRule::kFixed:
      return options_.eta;
    case StepRule::kDiminishing:
      return options_.eta / std::sqrt(static_cast<double>(k + 1));
    case StepRule::kHarmonic:
      return options_.eta / static_cast<double>(k + 1);
  }
  return options_.eta;
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
  if (!begin_iteration(model, backend)) return true;

  // Minimize L_k with the Ising machine; read the measured sample(s).
  // replicas == 1 keeps the paper's single run() call (and its exact RNG
  // stream); replicas > 1 fans out through the backend's run_batch.
  std::vector<anneal::RunResult> runs;
  if (options_.replicas > 1) {
    runs = backend.run_batch(rng_, options_.replicas);
  } else {
    runs.push_back(backend.run(rng_));
  }
  return consume_iteration(model, std::move(runs));
}

bool DualAscent::begin_fused_round(lagrange::LagrangianModel& model,
                                   anneal::IsingSolverBackend& backend) {
  if (!begin_iteration(model, backend)) return false;
  // Consumes exactly what run_batch would from this job's RNG (one base
  // draw) and snapshots the model's current fields, so later members'
  // set_lambda cannot disturb this member's enqueued landscape.
  backend.enqueue_fused(rng_, options_.replicas);
  return true;
}

bool DualAscent::consume_fused_round(lagrange::LagrangianModel& model,
                                     std::vector<anneal::RunResult> runs) {
  // Other members' begin_fused_round calls re-shaped the shared model
  // since ours; the history record evaluates model.lagrangian(x) and must
  // see THIS job's (pre-update) multipliers again.
  if (options_.record_history) model.set_lambda(lambda_);
  return consume_iteration(model, std::move(runs));
}

bool DualAscent::begin_iteration(lagrange::LagrangianModel& model,
                                 anneal::IsingSolverBackend& backend) {
  if (finished_) return false;

  if (k_ == 0 && !warm_starts_.empty()) {
    // Import the pooled samples: re-judged (never trusted) against THIS
    // job's evaluator, and only best_cost/best_x seeded — the measured
    // per-sample statistics stay untouched so feasibility_rate and
    // optimality columns keep describing what this solve measured.
    for (const auto& sample : warm_starts_) {
      if (sample.size() != problem_->n()) continue;
      const SampleVerdict v = judge_(sample);
      if (!v.feasible) continue;
      result_.found_feasible = true;
      if (v.cost < result_.best_cost) {
        result_.best_cost = v.cost;
        result_.best_config = sample;
        result_.best_x.assign(
            sample.begin(),
            sample.begin() +
                static_cast<std::ptrdiff_t>(problem_->num_decision()));
      }
    }
  }

  // Cooperative stop, polled once per outer iteration so the inner
  // Monte-Carlo loop stays unchanged. Everything gathered so far stays in
  // the (partial) result.
  if (stop_.stop_requested()) {
    finalize(stop_.cancelled() ? Status::kCancelled : Status::kDeadline);
    return false;
  }
  if (k_ >= options_.iterations) {
    finalize(Status::kCompleted);
    return false;
  }

  // (Re-)shape the landscape for THIS job's multipliers. set_lambda is a
  // pure rebuild from base coefficients, so interleaving other jobs'
  // lambdas on the same model between our steps is invisible here.
  model.set_lambda(lambda_);
  backend.fields_updated();
  backend.set_stop_token(stop_);
  if (k_ == 0 && !warm_starts_.empty() &&
      backend.supports_initial_states()) {
    std::vector<ising::Spins> seeds;
    seeds.reserve(warm_starts_.size());
    for (const auto& sample : warm_starts_) {
      if (sample.size() == problem_->n()) {
        seeds.push_back(ising::bits_to_spins(sample));
      }
    }
    if (!seeds.empty()) backend.set_initial_states(std::move(seeds));
  }
  return true;
}

bool DualAscent::consume_iteration(lagrange::LagrangianModel& model,
                                   std::vector<anneal::RunResult> runs) {
  if (runs.empty()) {
    // The batch refused to start because the stop fired in between.
    finalize(stop_.cancelled() ? Status::kCancelled : Status::kDeadline);
    return true;
  }

  // Judge every replica's sample against the original problem; guide the
  // lambda update with the lowest-energy one.
  std::size_t guide = 0;
  ising::Bits x;
  SampleVerdict verdict;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const auto& run = runs[r];
    const auto& spins = options_.use_best_sample ? run.best : run.last;
    const ising::Bits xr = ising::spins_to_bits(spins);
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
        result_.best_config = xr;
        result_.best_x.assign(xr.begin(),
                              xr.begin() + static_cast<std::ptrdiff_t>(
                                               problem_->num_decision()));
      }
    }

    const double guide_energy =
        options_.use_best_sample ? run.best_energy : run.last_energy;
    const double incumbent = options_.use_best_sample
                                 ? runs[guide].best_energy
                                 : runs[guide].last_energy;
    if (r == 0 || guide_energy < incumbent) {
      guide = r;
      x = xr;
      verdict = v;
    }
  }

  // Subgradient ascent on the dual: lambda <- lambda + eta_k g(x_k).
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
  const double eta_k = step_size(k_);
  double lambda_change = 0.0;
  for (std::size_t m = 0; m < lambda_.size(); ++m) {
    const double step = eta_k * g[m];
    lambda_[m] += step;
    lambda_change += std::abs(step);
  }

  for (const auto& run : runs) result_.total_sweeps += run.sweeps;
  result_.total_runs += runs.size();
  ++k_;

  // Optional early stop once the multiplier staircase has flattened and
  // the feasible pool is non-empty.
  if (options_.convergence_patience > 0) {
    const double mean_change =
        lambda_.empty() ? 0.0
                        : lambda_change / static_cast<double>(lambda_.size());
    if (mean_change <= options_.convergence_tol && result_.found_feasible) {
      ++converged_streak_;
      if (converged_streak_ >= options_.convergence_patience) {
        finalize(Status::kCompleted);
        return true;
      }
    } else {
      converged_streak_ = 0;
    }
  }
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
  if (options_.iterations == 0) {
    throw std::invalid_argument("SaimSolver: iterations must be positive");
  }
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
