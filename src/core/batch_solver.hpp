// Same-instance batch execution of Algorithm 1.
//
// The service's queue regularly holds several jobs over ONE problem
// instance (hot instances in a traffic stream). Run one at a time, each
// job pays the full setup tax: normalize -> LagrangianModel (couplings,
// O(nnz)) -> backend bind (adjacency CSR, O(edges)). solve_batch pays
// none of it: the caller hands in a model already built and a backend
// already bound to it (the service keeps both across batches), shared by
// all members, whose DualAscents advance in lockstep rounds. Because a
// lambda update only rewrites the Ising *fields* (see lagrangian_model.hpp)
// and set_lambda is a pure rebuild, re-applying member j's multipliers
// before each of its inner runs reproduces exactly the landscape a solo
// solve would have shown it — with warm starts off, batch members are
// bit-identical to solo runs (pinned by tests/service_batch_test.cpp).
//
// Members may differ in seed, eta, iterations, replicas, deadlines — but
// NOT in anything that shapes couplings (penalty / penalty_alpha) or in
// the backend they want; the service's batch key guarantees that. Each
// member carries its own StopToken: a deadline or cancel lands between
// that member's iterations (and inside its inner runs via the backend's
// chunked checks) without touching its batch-mates, and a stopped member
// still hands back its partial best.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/saim_solver.hpp"
#include "lagrange/lagrangian_model.hpp"

namespace saim::core {

/// One batch member: everything per-job that solo SaimSolver::solve takes.
struct BatchJob {
  SaimOptions options;
  SampleEvaluator evaluator;  ///< null = normalized-equality fallback
  util::StopToken stop;
  /// Known-feasible full configurations (service warm-start pool). On the
  /// member's first iteration they are re-judged and imported as its
  /// best-so-far, and seeded as backend initial states when supported.
  std::vector<ising::Bits> warm_starts;
};

/// Outcome of one member; `error` is set (and status == kError) when the
/// member's evaluator or options failed — other members are unaffected.
struct BatchOutcome {
  SolveResult result;
  std::string error;
};

/// Fires the moment one member finishes, while its batch-mates keep
/// running — the service uses this to wake that member's waiters without
/// holding them for the whole batch. The callback may consume (move from)
/// the outcome; the entry returned by solve_batch is then moved-from.
using BatchMemberDone = std::function<void(std::size_t job, BatchOutcome&)>;

/// Runs every job against model.problem() on ONE model + ONE backend,
/// which the caller must already have bound to model.ising(). The model
/// may have served earlier batches: every member step re-applies its own
/// lambda first, so what the model held before does not matter. All jobs
/// must agree on penalty / penalty_alpha, and the model must have been
/// shaped from them; members that disagree with each other throw
/// std::invalid_argument, as does an empty job list. Returns outcomes in
/// job order.
std::vector<BatchOutcome> solve_batch(
    lagrange::LagrangianModel& model, anneal::IsingSolverBackend& backend,
    std::vector<BatchJob> jobs,
    const BatchMemberDone& on_member_done = nullptr);

}  // namespace saim::core
