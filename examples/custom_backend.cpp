// "Compatible with any programmable IM": plugging a custom solver into
// SAIM. The paper's Algorithm 1 only needs an inner minimizer for the
// current Lagrangian; anything that implements IsingSolverBackend works.
//
// This example implements a deliberately simple backend — greedy
// steepest-descent local search with random restarts (a "zero-temperature
// Ising machine") — and runs the same QKP through it, the p-bit machine,
// and parallel tempering, printing a side-by-side comparison.
#include <cstdio>
#include <memory>

#include "anneal/backend.hpp"
#include "anneal/parallel_tempering.hpp"
#include "core/penalty_method.hpp"
#include "core/saim_solver.hpp"
#include "ising/adjacency.hpp"
#include "ising/local_field.hpp"
#include "problems/qkp.hpp"

namespace {

using namespace saim;

/// Steepest-descent local search with random restarts. Each run() does
/// `restarts` descents to local minima and reads the last one reached —
/// mimicking how a one-shot hardware annealer would be sampled.
class LocalSearchBackend final : public anneal::IsingSolverBackend {
 public:
  LocalSearchBackend(std::size_t restarts, std::size_t max_descent_sweeps)
      : restarts_(restarts), max_descent_sweeps_(max_descent_sweeps) {}

  void bind(const ising::IsingModel& model) override {
    model_ = &model;
    adjacency_ = std::make_unique<ising::Adjacency>(model);
  }

  anneal::RunResult run(util::Xoshiro256pp& rng) override {
    anneal::RunResult result;
    // The incremental engine every in-repo backend uses is public API:
    // field(i) is an O(1) read, flip(m, i) an O(deg) update.
    ising::LocalFieldState lfs(*model_, *adjacency_);
    for (std::size_t r = 0; r < restarts_; ++r) {
      ising::Spins m(model_->n());
      for (auto& s : m) s = rng.bernoulli(0.5) ? 1 : -1;
      lfs.reset(m);
      // Descend: flip any spin that lowers H until no such spin exists.
      for (std::size_t sweep = 0; sweep < max_descent_sweeps_; ++sweep) {
        bool improved = false;
        for (std::size_t i = 0; i < m.size(); ++i) {
          if (lfs.flip_delta(m, i) < 0.0) {
            lfs.flip(m, i);
            improved = true;
          }
        }
        result.sweeps++;
        if (!improved) break;
      }
      result.last = m;
      result.last_energy = lfs.energy();
    }
    return result;
  }

  [[nodiscard]] std::size_t sweeps_per_run() const override {
    return restarts_ * max_descent_sweeps_;
  }
  [[nodiscard]] std::string name() const override {
    return "greedy-local-search";
  }

 private:
  std::size_t restarts_;
  std::size_t max_descent_sweeps_;
  const ising::IsingModel* model_ = nullptr;
  std::unique_ptr<ising::Adjacency> adjacency_;
};

core::SolveResult run_with(anneal::IsingSolverBackend& backend,
                           const problems::QkpInstance& inst,
                           std::size_t iterations) {
  const auto mapping = problems::qkp_to_problem(inst);
  core::SaimOptions opts;
  opts.iterations = iterations;
  opts.eta = 20.0;
  opts.penalty_alpha = 2.0;
  opts.seed = 13;
  core::SaimSolver solver(mapping.problem, backend, opts);
  return solver.solve(core::make_qkp_evaluator(inst));
}

}  // namespace

int main() {
  const auto inst = problems::make_paper_qkp(60, 50, 1);
  std::printf("QKP %s through three interchangeable inner solvers\n\n",
              inst.name().c_str());

  anneal::PBitBackend pbit(pbit::Schedule::linear(10.0), 1000);
  LocalSearchBackend local(/*restarts=*/5, /*max_descent_sweeps=*/50);
  anneal::PtOptions pt_opts;
  pt_opts.replicas = 8;
  pt_opts.beta_min = 0.3;
  pt_opts.beta_max = 15.0;
  pt_opts.sweeps = 125;  // 8 x 125 = 1000 MCS per run, same budget
  anneal::ParallelTemperingBackend pt(pt_opts);

  struct Row {
    const char* label;
    core::SolveResult result;
  };
  std::vector<Row> rows;
  rows.push_back({"p-bit annealer (paper)", run_with(pbit, inst, 200)});
  rows.push_back({"greedy local search", run_with(local, inst, 200)});
  rows.push_back({"parallel tempering", run_with(pt, inst, 200)});

  double reference = 0.0;
  for (const auto& row : rows) {
    if (row.result.found_feasible) {
      reference = std::min(reference, row.result.best_cost);
    }
  }

  std::printf("%-24s %10s %10s %8s %12s\n", "backend", "best", "accuracy",
              "feas%", "MCS");
  for (const auto& row : rows) {
    std::printf("%-24s %10.0f %9.2f%% %7.1f%% %12zu\n", row.label,
                row.result.found_feasible ? row.result.best_cost : 0.0,
                row.result.found_feasible && reference != 0.0
                    ? core::accuracy_percent(row.result.best_cost, reference)
                    : 0.0,
                100.0 * row.result.feasibility_rate(),
                row.result.total_sweeps);
  }
  std::printf("\nall three run the identical outer loop — only the inner "
              "minimizer of L(x; lambda) differs.\n");
  return 0;
}
