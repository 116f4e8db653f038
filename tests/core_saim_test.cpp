#include "core/saim_solver.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "anneal/parallel_tempering.hpp"
#include "anneal/simulated_annealing.hpp"
#include "core/params.hpp"
#include "core/penalty_method.hpp"
#include "exact/exhaustive.hpp"
#include "ising/adjacency.hpp"
#include "nondyadic_models.hpp"
#include "problems/mkp.hpp"
#include "problems/qkp.hpp"

namespace saim::core {
namespace {

using problems::ConstrainedProblem;
using problems::LinearConstraint;

// The paper's Fig. 2 toy: min f(x) s.t. x = 2, with x a 2-bit integer
// x = x0 + 2 x1 and f chosen so the unconstrained minimum is x = 3.
// With a small P < P_C the penalty method alone lands on the unfeasible
// minimum; the Lagrange term must shape the landscape until x = 2 wins.
ConstrainedProblem fig2_toy() {
  ising::QuboModel f(2);
  // f(x) = -(x0 + 2 x1): strictly decreasing in x, min at x=3.
  f.add_linear(0, -1.0);
  f.add_linear(1, -2.0);
  LinearConstraint g;  // x0 + 2 x1 - 2 = 0
  g.terms = {{0, 1.0}, {1, 2.0}};
  g.rhs = 2.0;
  return ConstrainedProblem(std::move(f), {g}, 2);
}

anneal::PBitBackend small_backend(std::size_t sweeps = 200,
                                  double beta_max = 10.0) {
  return anneal::PBitBackend(pbit::Schedule::linear(beta_max), sweeps);
}

TEST(SaimSolver, ClosesGapOnFig2Toy) {
  const auto problem = fig2_toy();
  auto backend = small_backend();
  SaimOptions opts;
  opts.iterations = 60;
  opts.eta = 0.3;
  opts.penalty = 0.4;  // deliberately below the critical value
  opts.seed = 3;
  SaimSolver solver(problem, backend, opts);
  const auto result = solver.solve();
  ASSERT_TRUE(result.found_feasible);
  // The only feasible point is x=2 (x0=0,x1=1), cost f = -2.
  EXPECT_DOUBLE_EQ(result.best_cost, -2.0);
  ASSERT_EQ(result.best_x.size(), 2u);
  EXPECT_EQ(result.best_x[0], 0);
  EXPECT_EQ(result.best_x[1], 1);
}

TEST(SaimSolver, PenaltyAloneFailsWhereSaimSucceeds) {
  // Same toy, same tiny P: with eta = 0 (pure penalty method) the minimum
  // of E is the unfeasible x=3, so the machine rarely if ever samples x=2.
  const auto problem = fig2_toy();
  auto backend = small_backend();
  PenaltyOptions popts;
  popts.runs = 60;
  popts.penalty = 0.4;
  popts.seed = 3;
  const auto penalty_result =
      solve_penalty_method(problem, backend, popts);
  // The pure penalty method with P < P_C concentrates on x=3; it must have
  // a materially worse feasibility rate than SAIM's (which shapes the
  // landscape toward x=2).
  auto backend2 = small_backend();
  SaimOptions sopts;
  sopts.iterations = 60;
  sopts.eta = 0.3;
  sopts.penalty = 0.4;
  sopts.seed = 3;
  SaimSolver saim(problem, backend2, sopts);
  const auto saim_result = saim.solve();
  EXPECT_GT(saim_result.feasibility_rate(),
            penalty_result.feasibility_rate());
}

TEST(SaimSolver, HeuristicPenaltyAppliedWhenUnset) {
  const auto inst = problems::make_paper_qkp(20, 50, 1);
  const auto mapping = problems::qkp_to_problem(inst);
  auto backend = small_backend();
  SaimOptions opts;
  opts.iterations = 1;
  opts.penalty_alpha = 2.0;
  SaimSolver solver(mapping.problem, backend, opts);
  EXPECT_NEAR(solver.penalty(),
              lagrange::heuristic_penalty(mapping.problem, 2.0), 1e-12);
}

TEST(SaimSolver, ExplicitPenaltyOverridesHeuristic) {
  const auto problem = fig2_toy();
  auto backend = small_backend();
  SaimOptions opts;
  opts.iterations = 1;
  opts.penalty = 7.5;
  SaimSolver solver(problem, backend, opts);
  EXPECT_DOUBLE_EQ(solver.penalty(), 7.5);
}

TEST(SaimSolver, ZeroIterationsThrows) {
  const auto problem = fig2_toy();
  auto backend = small_backend();
  SaimOptions opts;
  opts.iterations = 0;
  SaimSolver solver(problem, backend, opts);
  EXPECT_THROW(solver.solve(), std::invalid_argument);
  EXPECT_THROW(DualAscent(problem, opts, nullptr, util::StopToken{}),
               std::invalid_argument);
}

TEST(SaimSolver, HistoryRecordsEveryIteration) {
  const auto problem = fig2_toy();
  auto backend = small_backend();
  SaimOptions opts;
  opts.iterations = 25;
  opts.eta = 0.2;
  opts.penalty = 0.4;
  opts.record_history = true;
  SaimSolver solver(problem, backend, opts);
  const auto result = solver.solve();
  ASSERT_EQ(result.history.size(), 25u);
  for (std::size_t k = 0; k < result.history.size(); ++k) {
    EXPECT_EQ(result.history[k].iteration, k);
    EXPECT_EQ(result.history[k].lambda.size(), 1u);
  }
  // lambda starts at zero and must have moved at some point.
  EXPECT_DOUBLE_EQ(result.history.front().lambda[0], 0.0);
  bool moved = false;
  for (const auto& rec : result.history) {
    if (rec.lambda[0] != 0.0) moved = true;
  }
  EXPECT_TRUE(moved);
}

TEST(SaimSolver, SweepAccountingMatchesBudget) {
  const auto problem = fig2_toy();
  auto backend = small_backend(150);
  SaimOptions opts;
  opts.iterations = 20;
  opts.penalty = 0.4;
  SaimSolver solver(problem, backend, opts);
  const auto result = solver.solve();
  EXPECT_EQ(result.total_runs, 20u);
  EXPECT_EQ(result.total_sweeps, 20u * 150u);
}

TEST(SaimSolver, DeterministicPerSeed) {
  const auto inst = problems::make_paper_qkp(15, 50, 3);
  const auto mapping = problems::qkp_to_problem(inst);
  const auto eval = make_qkp_evaluator(inst);

  auto run_once = [&] {
    auto backend = small_backend(100);
    SaimOptions opts;
    opts.iterations = 30;
    opts.eta = 20.0;
    opts.seed = 17;
    SaimSolver solver(mapping.problem, backend, opts);
    return solver.solve(eval);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.feasible_count, b.feasible_count);
  EXPECT_EQ(a.best_x, b.best_x);
}

TEST(SaimSolver, FindsOptimumOnExhaustivelySolvedQkp) {
  const auto inst = problems::make_paper_qkp(12, 50, 9);
  const auto mapping = problems::qkp_to_problem(inst);
  const auto eval = make_qkp_evaluator(inst);

  // Ground truth by enumeration over the 12 decision bits.
  const auto exact = exact::exhaustive_minimize(
      inst.n(), [&](std::span<const std::uint8_t> x) {
        exact::Verdict v;
        v.feasible = inst.feasible(x);
        v.cost = static_cast<double>(inst.cost(x));
        return v;
      });
  ASSERT_TRUE(exact.found);

  auto backend = small_backend(300, 10.0);
  SaimOptions opts;
  opts.iterations = 150;
  opts.eta = 20.0;
  opts.penalty_alpha = 2.0;
  opts.seed = 9;
  SaimSolver solver(mapping.problem, backend, opts);
  const auto result = solver.solve(eval);
  ASSERT_TRUE(result.found_feasible);
  EXPECT_DOUBLE_EQ(result.best_cost, exact.best_cost);
}

TEST(SaimSolver, EqualityEvaluatorRequiresSlackCompletion) {
  const auto problem = fig2_toy();
  const auto eval = make_equality_evaluator(problem);
  // x=2 encoded as (0,1): g = 0 -> feasible; cost = f = -2.
  const std::vector<std::uint8_t> feasible = {0, 1};
  const auto v1 = eval(feasible);
  EXPECT_TRUE(v1.feasible);
  EXPECT_DOUBLE_EQ(v1.cost, -2.0);
  const std::vector<std::uint8_t> infeasible = {1, 1};
  EXPECT_FALSE(eval(infeasible).feasible);
}

TEST(SaimSolver, AccuracyMetricMatchesPaperEquation) {
  // accuracy = 100 c/OPT with negative costs.
  EXPECT_DOUBLE_EQ(accuracy_percent(-99.0, -100.0), 99.0);
  EXPECT_DOUBLE_EQ(accuracy_percent(-100.0, -100.0), 100.0);
  EXPECT_DOUBLE_EQ(accuracy_percent(0.0, -100.0), 0.0);
  EXPECT_DOUBLE_EQ(accuracy_percent(-50.0, 0.0), 0.0);
}

TEST(Params, TableOneValues) {
  const auto qkp = qkp_paper_params();
  EXPECT_DOUBLE_EQ(qkp.penalty_alpha, 2.0);
  EXPECT_EQ(qkp.mcs_per_run, 1000u);
  EXPECT_EQ(qkp.runs, 2000u);
  EXPECT_DOUBLE_EQ(qkp.beta_max, 10.0);
  EXPECT_DOUBLE_EQ(qkp.eta, 20.0);

  const auto mkp = mkp_paper_params();
  EXPECT_DOUBLE_EQ(mkp.penalty_alpha, 5.0);
  EXPECT_EQ(mkp.mcs_per_run, 1000u);
  EXPECT_EQ(mkp.runs, 5000u);
  EXPECT_DOUBLE_EQ(mkp.beta_max, 50.0);
  EXPECT_DOUBLE_EQ(mkp.eta, 0.05);
}

// Golden trajectories. The parity suites compare engine against engine, so
// a change that moved every engine the same way would pass them; these
// pins compare against recorded numbers instead. They were recorded with
// the one-spin-at-a-time p-bit sweep and CSR-scatter flips that preceded
// the blocked sweep and the dense-row flips, and must not move.
struct Pin {
  double best_cost;
  std::size_t feasible_count;
  std::size_t total_sweeps;
  std::vector<std::uint64_t> lambda_bits;  ///< lambda of the last iteration
  std::uint64_t last_sample_hash;          ///< FNV-1a of the last sample
};

void expect_pinned(const problems::ConstrainedProblem& problem,
                   anneal::IsingSolverBackend& backend, SaimOptions opts,
                   const SampleEvaluator& eval, const Pin& pin) {
  std::vector<std::uint8_t> last;
  const SampleEvaluator judge = [&](std::span<const std::uint8_t> x) {
    last.assign(x.begin(), x.end());
    return eval(x);
  };
  opts.iterations = 20;
  opts.seed = 5;
  opts.record_history = true;
  SaimSolver solver(problem, backend, opts);
  // The Lagrangian couples every pair of items: flips take the dense rows.
  EXPECT_TRUE(ising::Adjacency(solver.model().ising()).dense());
  const auto result = solver.solve(judge);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto b : last) {
    hash = (hash ^ b) * 0x100000001b3ULL;
  }
  std::vector<std::uint64_t> lambda_bits;
  for (const double l : result.history.back().lambda) {
    lambda_bits.push_back(std::bit_cast<std::uint64_t>(l));
  }
  EXPECT_EQ(result.best_cost, pin.best_cost);
  EXPECT_EQ(result.feasible_count, pin.feasible_count);
  EXPECT_EQ(result.total_sweeps, pin.total_sweeps);
  EXPECT_EQ(lambda_bits, pin.lambda_bits);
  EXPECT_EQ(hash, pin.last_sample_hash);
}

SaimOptions qkp_pin_options() {
  SaimOptions opts;
  opts.eta = 200.0;
  opts.penalty_alpha = 2.0;
  return opts;
}

TEST(GoldenTrajectory, PbitOnQkp60) {
  const auto inst = problems::make_paper_qkp(60, 50, 1);
  const auto mapping = problems::qkp_to_problem(inst);
  const auto eval = make_qkp_evaluator(inst);
  anneal::PBitBackend backend(pbit::Schedule::linear(10.0), 200);
  expect_pinned(mapping.problem, backend, qkp_pin_options(), eval,
                Pin{-35104.0, 8, 4000, {0x4075730cf30cf317ULL},
                    0xa04a5dfd44262055ULL});
}

TEST(GoldenTrajectory, PbitOnMkp30) {
  const auto inst = problems::make_paper_mkp(30, 3, 1);
  const auto mapping = problems::mkp_to_problem(inst);
  anneal::PBitBackend backend(pbit::Schedule::linear(50.0), 200);
  SaimOptions opts;
  opts.eta = 20.0;
  opts.penalty_alpha = 5.0;
  expect_pinned(mapping.problem, backend, opts, make_mkp_evaluator(inst),
                Pin{-12320.0,
                    5,
                    4000,
                    {0x4004ce5807b825aeULL, 0x3ffde015606ae20fULL,
                     0x4007086329efd1dfULL},
                    0xa6aa397a6c8c81d7ULL});
}

TEST(GoldenTrajectory, MetropolisSaOnQkp60) {
  const auto inst = problems::make_paper_qkp(60, 50, 1);
  const auto mapping = problems::qkp_to_problem(inst);
  anneal::MetropolisSaBackend backend(pbit::Schedule::linear(10.0), 200);
  expect_pinned(mapping.problem, backend, qkp_pin_options(),
                make_qkp_evaluator(inst),
                Pin{-36161.0, 6, 4000, {0x4076b9e619e619edULL},
                    0xc0be175a9b2e9537ULL});
}

TEST(GoldenTrajectory, ParallelTemperingOnQkp60) {
  const auto inst = problems::make_paper_qkp(60, 50, 1);
  const auto mapping = problems::qkp_to_problem(inst);
  anneal::PtOptions pt;
  pt.replicas = 4;
  pt.beta_min = 0.5;
  pt.beta_max = 10.0;
  pt.sweeps = 50;
  pt.swap_interval = 5;
  anneal::ParallelTemperingBackend backend(pt);
  expect_pinned(mapping.problem, backend, qkp_pin_options(),
                make_qkp_evaluator(inst),
                Pin{-35104.0, 8, 4000, {0x40782936c936c93cULL},
                    0xb76642a271f8a895ULL});
}

// Replica batches. These pins were recorded while batches of 32 or more
// replicas ran on a separate bit-sliced engine, so they hold the one
// remaining engine to that engine's output, bit for bit. The model is a
// non-dyadic QKP Lagrangian, where any reordered sum would show.
struct BatchPin {
  std::uint64_t last_hash;  ///< FNV-1a over every replica's last
  std::uint64_t next_draw;  ///< the caller's next draw after
};

void expect_batch_pinned(anneal::IsingSolverBackend& backend,
                         const BatchPin& pin) {
  const auto model = testing_models::qkp_lagrangian(60, 50, 1);
  backend.bind(model);
  util::Xoshiro256pp rng(2026);
  const auto runs = backend.run_batch(rng, 40);
  ASSERT_EQ(runs.size(), 40u);
  std::uint64_t last_hash = 0xcbf29ce484222325ULL;
  const auto fnv = [](std::uint64_t& h, std::uint8_t b) {
    h = (h ^ b) * 0x100000001b3ULL;
  };
  for (const auto& r : runs) {
    EXPECT_EQ(r.sweeps, backend.sweeps_per_run());
    for (const auto m : r.last) fnv(last_hash, static_cast<std::uint8_t>(m));
  }
  EXPECT_EQ(last_hash, pin.last_hash);
  EXPECT_EQ(rng(), pin.next_draw);
}

TEST(GoldenTrajectory, PbitBatchOf40Replicas) {
  anneal::PBitBackend backend(pbit::Schedule::linear(10.0), 60);
  expect_batch_pinned(backend,
                      BatchPin{0x91ab947163df6a3dULL, 0x9d34f4497825b7a7ULL});
}

TEST(GoldenTrajectory, MetropolisSaBatchOf40Replicas) {
  anneal::MetropolisSaBackend backend(pbit::Schedule::linear(10.0), 60);
  expect_batch_pinned(backend,
                      BatchPin{0x83e2b8ca226c044bULL, 0x9d34f4497825b7a7ULL});
}

}  // namespace
}  // namespace saim::core
