#include "core/batch_solver.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

namespace saim::core {

namespace {
/// Restores the backend's idle (never-stopping) token even when a member
/// callback throws — a stale deadline-armed token left installed would
/// spuriously truncate the caller's next runs.
struct BackendStopGuard {
  anneal::IsingSolverBackend* backend;
  ~BackendStopGuard() { backend->set_stop_token(util::StopToken{}); }
};
}  // namespace

std::vector<BatchOutcome> solve_batch(
    lagrange::LagrangianModel& model, anneal::IsingSolverBackend& backend,
    std::vector<BatchJob> jobs, const BatchMemberDone& on_member_done) {
  if (jobs.empty()) {
    throw std::invalid_argument("solve_batch: no jobs");
  }
  const SaimOptions& shaping = jobs.front().options;
  for (const BatchJob& job : jobs) {
    if (job.options.penalty != shaping.penalty ||
        job.options.penalty_alpha != shaping.penalty_alpha) {
      throw std::invalid_argument(
          "solve_batch: members disagree on penalty shaping");
    }
  }

  const problems::ConstrainedProblem& problem = model.problem();
  BackendStopGuard stop_guard{&backend};

  std::vector<BatchOutcome> outcomes(jobs.size());
  std::vector<std::unique_ptr<DualAscent>> ascents(jobs.size());
  std::size_t active = 0;

  const auto settle = [&](std::size_t j) {
    ascents[j].reset();
    --active;
    if (on_member_done) on_member_done(j, outcomes[j]);
  };
  const auto fail = [&](std::size_t j, std::string what) {
    outcomes[j].result = std::move(ascents[j]->result());
    outcomes[j].result.status = Status::kError;
    outcomes[j].error = std::move(what);
    settle(j);
  };

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    BatchJob& job = jobs[j];
    if (job.options.iterations == 0) {
      // Mirrors SaimSolver's constructor contract, demoted to a per-member
      // failure so one bad request cannot sink its batch-mates.
      outcomes[j].result.status = Status::kError;
      outcomes[j].error = "SaimSolver: iterations must be positive";
      if (on_member_done) on_member_done(j, outcomes[j]);
      continue;
    }
    ascents[j] = std::make_unique<DualAscent>(
        problem, job.options, std::move(job.evaluator), std::move(job.stop),
        std::move(job.warm_starts));
    ++active;
  }

  // Lockstep rounds: every live member advances one outer iteration per
  // round, so short jobs drain early and a slow member never starves the
  // others' progress. A member whose evaluator throws is finalized as
  // kError on the spot; the shared model/backend carry no per-member state
  // across runs, so the rest of the batch is untouched.
  //
  // Batch-aware replica fusion: when the backend has a bit-sliced path
  // (supports_fused_batch) and a member runs multiple replicas, the
  // member's inner run is enqueued instead of executed, and ONE
  // backend.run_fused() per round sweeps every pending member's replicas
  // together — one engine dispatch instead of one per member. Per-member
  // results are bit-identical to the unfused step() path, so fusion is
  // pure performance policy.
  const bool fuse = backend.supports_fused_batch();
  std::vector<std::size_t> pending;
  while (active > 0) {
    pending.clear();
    for (std::size_t j = 0; j < ascents.size(); ++j) {
      if (!ascents[j]) continue;
      try {
        if (fuse && jobs[j].options.replicas > 1) {
          if (ascents[j]->begin_fused_round(model, backend)) {
            pending.push_back(j);
          } else {
            outcomes[j].result = std::move(ascents[j]->result());
            settle(j);
          }
        } else if (ascents[j]->step(model, backend)) {
          outcomes[j].result = std::move(ascents[j]->result());
          settle(j);
        }
      } catch (const std::exception& e) {
        fail(j, e.what());
      } catch (...) {
        fail(j, "unknown exception in solve job");
      }
    }
    if (pending.empty()) continue;

    std::vector<std::vector<anneal::RunResult>> fused;
    try {
      fused = backend.run_fused();
    } catch (const std::exception& e) {
      for (const std::size_t j : pending) fail(j, e.what());
      continue;
    } catch (...) {
      for (const std::size_t j : pending) {
        fail(j, "unknown exception in fused batch run");
      }
      continue;
    }
    for (std::size_t p = 0; p < pending.size(); ++p) {
      const std::size_t j = pending[p];
      try {
        if (ascents[j]->consume_fused_round(model, std::move(fused[p]))) {
          outcomes[j].result = std::move(ascents[j]->result());
          settle(j);
        }
      } catch (const std::exception& e) {
        fail(j, e.what());
      } catch (...) {
        fail(j, "unknown exception in solve job");
      }
    }
  }
  return outcomes;
}

}  // namespace saim::core
