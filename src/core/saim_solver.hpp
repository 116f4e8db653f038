// The paper's Algorithm 1 — Self-Adaptive Ising Machine.
//
//   (lambda_0, P) <- (0, alpha d N)
//   for K iterations:
//       minimize L_k:   x_k = argmin_x L      [Ising machine]
//       store feasible  x̂_k                   [CPU]
//       update          lambda_{k+1} = lambda_k + eta g(x_k)   [CPU]
//   return argmin_k f(x̂_k)
//
// The inner minimizer is any IsingSolverBackend; lambda updates rewrite only
// the Ising fields (see lagrange/lagrangian_model.hpp). Feasibility and
// cost of a measured sample are judged on the *original* problem (raw
// integer inequality on the decision bits), supplied via SampleEvaluator —
// exactly the paper's "check feasibility as A^T x_k <= b and if feasible
// save its cost".
#pragma once

#include <functional>
#include <span>

#include "anneal/backend.hpp"
#include "core/result.hpp"
#include "lagrange/lagrangian_model.hpp"
#include "problems/constrained_problem.hpp"
#include "util/stop_token.hpp"

namespace saim::core {

/// Verdict of the original (un-relaxed, un-normalized) problem on a
/// measured sample.
struct SampleVerdict {
  bool feasible = false;
  double cost = 0.0;  ///< raw cost (negative for knapsack profits)
};

/// Receives the FULL slack-extended configuration; instance adapters
/// (make_qkp_evaluator / make_mkp_evaluator in core/penalty_method.hpp)
/// judge only the first num_decision bits, as the paper does.
using SampleEvaluator =
    std::function<SampleVerdict(std::span<const std::uint8_t>)>;

/// Subgradient step-size rule for the dual ascent.
enum class StepRule {
  kFixed,       ///< eta_k = eta (the paper's choice)
  kDiminishing, ///< eta_k = eta / sqrt(k+1) — classical convergence rule
  kHarmonic,    ///< eta_k = eta / (k+1)
};

struct SaimOptions {
  std::size_t iterations = 2000;  ///< K
  double eta = 20.0;              ///< subgradient step (Table I)
  double penalty_alpha = 2.0;     ///< P = alpha d N when penalty < 0
  double penalty = -1.0;          ///< explicit P; negative = use heuristic
  StepRule step_rule = StepRule::kFixed;
  std::uint64_t seed = 1;
  /// Inner-solver replicas per outer iteration, executed through the
  /// backend's run_batch (thread-pooled with deterministic per-replica RNG
  /// streams for the in-repo engines). Every replica's measured sample is
  /// judged for feasibility; the lambda update uses the replica whose
  /// sample has the lowest Lagrangian energy — the tightest available
  /// estimate of argmin_x L. 1 reproduces the paper's single-run loop
  /// exactly.
  std::size_t replicas = 1;
  bool record_history = false;
  /// Update lambda from the run's best-energy state instead of its final
  /// sample (ablation; the paper reads "the last sample of state {m}").
  bool use_best_sample = false;
  /// Retain the raw cost of every feasible sample in the result (needed for
  /// the Optimality%% columns of Tables III-V).
  bool collect_feasible_costs = false;

  /// Early stopping on multiplier convergence: stop after the mean |dlambda|
  /// per constraint stays below `convergence_tol` for `convergence_patience`
  /// consecutive iterations AND at least one feasible sample exists.
  /// patience = 0 disables (the paper always runs the full K).
  std::size_t convergence_patience = 0;
  double convergence_tol = 1e-3;
};

/// The penalty P a solve with `options` shapes its landscape with: the
/// explicit options.penalty when set, else the alpha d N heuristic.
double effective_penalty(const problems::ConstrainedProblem& problem,
                         const SaimOptions& options);

/// One job's dual-ascent state, advanced one outer iteration at a time.
///
/// This is Algorithm 1 with the loop inverted: SaimSolver::solve drives a
/// DualAscent over the model it built, and the service drives one over a
/// LagrangianModel + bound backend that its worker keeps across jobs.
/// Each step re-applies this job's multipliers via model.set_lambda — a
/// pure rebuild from base coefficients — so whatever lambda the model held
/// before does not matter: the landscape a run sees depends only on this
/// job's own lambda trajectory, and the job owns its RNG stream.
class DualAscent {
 public:
  DualAscent(const problems::ConstrainedProblem& problem, SaimOptions options,
             SampleEvaluator evaluate, util::StopToken stop);

  /// Advances one outer iteration on (model, backend): set this job's
  /// lambda, run the inner solver, judge samples, update lambda. The model
  /// must be a LagrangianModel over the same problem contents and penalty
  /// this job expects; the backend must be bound to model.ising(). Returns
  /// true once the job is finished (completed, converged, stopped, or out
  /// of iterations) — after which further calls are no-ops returning true.
  bool step(lagrange::LagrangianModel& model,
            anneal::IsingSolverBackend& backend);

  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// The final (or partial, when stopped) result; valid once finished().
  [[nodiscard]] SolveResult& result() noexcept { return result_; }

 private:
  void finalize(Status status);
  [[nodiscard]] double step_size(std::size_t k) const noexcept;

  const problems::ConstrainedProblem* problem_;
  SaimOptions options_;
  SampleEvaluator judge_;
  util::StopToken stop_;

  util::Xoshiro256pp rng_;
  std::vector<double> lambda_;
  SolveResult result_;
  std::size_t k_ = 0;
  std::size_t converged_streak_ = 0;
  bool finished_ = false;
};

class SaimSolver {
 public:
  /// Problem and backend must outlive the solver. bind() is called here.
  SaimSolver(const problems::ConstrainedProblem& problem,
             anneal::IsingSolverBackend& backend, SaimOptions options);

  /// Runs Algorithm 1. `evaluate` judges decision bits against the raw
  /// instance; when omitted, feasibility falls back to |g(x)| <= tol on the
  /// normalized equality system and cost to normalized f(x).
  SolveResult solve(const SampleEvaluator& evaluate = nullptr);

  /// As above with cooperative cancellation: `stop` is polled once per
  /// outer iteration (and forwarded to the backend, which polls it between
  /// sweep chunks), so a cancel or an expired deadline ends the dual ascent
  /// within one inner run. The partial result carries everything gathered
  /// up to the stop and a Status of kCancelled / kDeadline.
  SolveResult solve(const SampleEvaluator& evaluate, util::StopToken stop);

  /// Effective penalty P in use (after the alpha d N heuristic).
  [[nodiscard]] double penalty() const noexcept { return model_.penalty(); }
  [[nodiscard]] const lagrange::LagrangianModel& model() const noexcept {
    return model_;
  }

 private:
  [[nodiscard]] double step_size(std::size_t k) const noexcept;

  const problems::ConstrainedProblem* problem_;
  anneal::IsingSolverBackend* backend_;
  SaimOptions options_;
  lagrange::LagrangianModel model_;
};

/// Fallback evaluator: feasible iff max normalized violation <= tol; cost is
/// the normalized objective. Requires the full slack-extended x, so it is
/// stricter than the raw inequality check (slack must complete the equality).
SampleEvaluator make_equality_evaluator(
    const problems::ConstrainedProblem& problem, double tol = 1e-9);

}  // namespace saim::core
