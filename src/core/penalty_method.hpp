// The classical penalty method (paper section II-A) and its tuning loop
// (section IV-A) — SAIM's main baseline in Table II.
//
// The penalty method minimizes E = f + P ||g||^2 with a *fixed* P over many
// independent annealing runs; it is exactly Algorithm 1 with eta = 0. The
// paper tunes P by starting from the small heuristic 2dN and "coarsely
// increasing until getting a satisfactory feasibility ratio (>= 20%)" — the
// tuned values it reports range from 40dN to 500dN, illustrating the cost
// SAIM avoids.
#pragma once

#include <vector>

#include "anneal/backend.hpp"
#include "core/result.hpp"
#include "core/saim_solver.hpp"
#include "problems/constrained_problem.hpp"
#include "problems/mkp.hpp"
#include "problems/qkp.hpp"

namespace saim::core {

struct PenaltyOptions {
  std::size_t runs = 10;     ///< independent annealing runs
  double penalty = -1.0;     ///< explicit P; negative = alpha d N heuristic
  double penalty_alpha = 2.0;
  std::uint64_t seed = 1;
  bool record_history = false;
};

/// Runs the fixed-P penalty method. Implemented as SAIM with eta = 0 so the
/// two methods share every code path except the multiplier update.
SolveResult solve_penalty_method(const problems::ConstrainedProblem& problem,
                                 anneal::IsingSolverBackend& backend,
                                 const PenaltyOptions& options,
                                 const SampleEvaluator& evaluate = nullptr);

struct PenaltyTuningOptions {
  /// Candidate multipliers alpha for P = alpha d N, probed in order; the
  /// ladder spans the paper's observed tuned range 2dN..500dN.
  std::vector<double> alpha_ladder = {2,  5,  10,  20,  40,  70,
                                      100, 150, 220, 300, 500};
  double target_feasibility = 0.20;  ///< paper: ">= 20%"
  std::size_t probe_runs = 10;       ///< annealing runs per probe
  std::uint64_t seed = 1;
};

struct PenaltyTuningResult {
  double alpha = 0.0;    ///< selected multiplier (P = alpha d N)
  double penalty = 0.0;  ///< selected P
  double feasibility = 0.0;
  /// (alpha, feasibility) of every probe — the tuning cost the paper says
  /// "worsens the time-to-solution".
  std::vector<std::pair<double, double>> probes;
  std::size_t total_sweeps = 0;  ///< MCS burned by the tuning phase
};

/// Reproduces the paper's coarse tuning loop. Stops at the first ladder rung
/// reaching the target feasibility; falls back to the most-feasible rung if
/// none reaches it.
PenaltyTuningResult tune_penalty(const problems::ConstrainedProblem& problem,
                                 anneal::IsingSolverBackend& backend,
                                 const PenaltyTuningOptions& options,
                                 const SampleEvaluator& evaluate = nullptr);

/// Raw-instance adapters: judge the first n decision bits with integer
/// arithmetic (A^T x <= b), exactly the paper's feasibility check.
SampleEvaluator make_qkp_evaluator(const problems::QkpInstance& instance);
SampleEvaluator make_mkp_evaluator(const problems::MkpInstance& instance);

}  // namespace saim::core
