#include <gtest/gtest.h>

#include "anneal/exact_backend.hpp"
#include "anneal/tabu.hpp"
#include "core/penalty_method.hpp"
#include "core/saim_solver.hpp"
#include "exact/exhaustive.hpp"
#include "problems/qkp.hpp"

namespace saim::anneal {
namespace {

ising::IsingModel spin_glass(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256pp rng(seed);
  ising::IsingModel model(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      model.add_coupling(i, j, rng.bernoulli(0.5) ? 1.0 : -1.0);
    }
  }
  return model;
}

double exact_ground(const ising::IsingModel& model) {
  const std::size_t n = model.n();
  double best = 1e300;
  ising::Spins m(n);
  for (std::uint64_t code = 0; code < (1ULL << n); ++code) {
    for (std::size_t i = 0; i < n; ++i) {
      m[i] = (code >> i) & 1ULL ? std::int8_t{1} : std::int8_t{-1};
    }
    best = std::min(best, model.energy(m));
  }
  return best;
}

TEST(TabuSearch, IncrementalDeltasStayConsistent) {
  // Long run on a field-ful model; final reported energies must match
  // fresh recomputation (catches any drift in the delta bookkeeping).
  util::Xoshiro256pp seed_rng(5);
  ising::IsingModel model(15);
  for (std::size_t i = 0; i < 15; ++i) {
    model.add_field(i, seed_rng.uniform_sym());
    for (std::size_t j = i + 1; j < 15; ++j) {
      if (seed_rng.bernoulli(0.4)) {
        model.add_coupling(i, j, seed_rng.uniform_sym() * 2.0);
      }
    }
  }
  TabuOptions opts;
  opts.steps = 5000;
  opts.stall_limit = 100;
  TabuSearch tabu(model, opts);
  util::Xoshiro256pp rng(2);
  const auto result = tabu.run(rng);
  EXPECT_NEAR(model.energy(result.last), result.last_energy, 1e-7);
}

TEST(TabuSearch, ZeroTenureThrows) {
  const auto model = spin_glass(6, 1);
  TabuOptions opts;
  opts.tenure = 0;
  EXPECT_THROW(TabuSearch(model, opts), std::invalid_argument);
}

TEST(TabuBackend, RunBeforeBindThrows) {
  TabuBackend backend(TabuOptions{});
  util::Xoshiro256pp rng(1);
  EXPECT_THROW(backend.run(rng), std::logic_error);
}

TEST(TabuBackend, SweepEquivalentAccounting) {
  TabuOptions opts;
  opts.steps = 1000;
  TabuBackend backend(opts);
  const auto model = spin_glass(10, 2);
  backend.bind(model);
  EXPECT_EQ(backend.sweeps_per_run(), 100u);
  EXPECT_EQ(backend.name(), "tabu");
}

TEST(TabuBackend, DrivesSaimToQkpOptimum) {
  const auto inst = problems::make_paper_qkp(12, 50, 9);
  const auto mapping = problems::qkp_to_problem(inst);
  const auto exact = exact::exhaustive_minimize(
      inst.n(), [&](std::span<const std::uint8_t> x) {
        exact::Verdict v;
        v.feasible = inst.feasible(x);
        v.cost = static_cast<double>(inst.cost(x));
        return v;
      });
  TabuOptions topts;
  topts.steps = 3000;
  TabuBackend backend(topts);
  core::SaimOptions opts;
  opts.iterations = 120;
  opts.eta = 20.0;
  opts.seed = 6;
  core::SaimSolver solver(mapping.problem, backend, opts);
  const auto result = solver.solve(core::make_qkp_evaluator(inst));
  ASSERT_TRUE(result.found_feasible);
  EXPECT_DOUBLE_EQ(result.best_cost, exact.best_cost);
}

TEST(ExactBackend, ReturnsTrueGroundState) {
  const auto model = spin_glass(10, 7);
  ExactBackend backend;
  backend.bind(model);
  util::Xoshiro256pp rng(1);
  const auto result = backend.run(rng);
  EXPECT_DOUBLE_EQ(result.last_energy, exact_ground(model));
}

TEST(ExactBackend, IsDeterministic) {
  const auto model = spin_glass(8, 9);
  ExactBackend backend;
  backend.bind(model);
  util::Xoshiro256pp a(1);
  util::Xoshiro256pp b(999);  // rng must not matter
  EXPECT_EQ(backend.run(a).last, backend.run(b).last);
}

TEST(ExactBackend, RejectsOversizedModels) {
  ising::IsingModel model(27);
  ExactBackend backend;
  EXPECT_THROW(backend.bind(model), std::invalid_argument);
}

TEST(ExactBackend, RunBeforeBindThrows) {
  ExactBackend backend;
  util::Xoshiro256pp rng(1);
  EXPECT_THROW(backend.run(rng), std::logic_error);
}

TEST(ExactBackend, SaimWithExactInnerSolveIsPureDualAscent) {
  // With an exact inner minimizer, Algorithm 1 is deterministic textbook
  // subgradient ascent: the feasible pool and best cost must be identical
  // across repeated solves, and SAIM must find the constrained optimum of
  // a small QKP.
  const auto inst = problems::make_paper_qkp(10, 50, 4);
  const auto mapping = problems::qkp_to_problem(inst);
  ASSERT_LE(mapping.problem.n(), 26u);
  const auto exact = exact::exhaustive_minimize(
      inst.n(), [&](std::span<const std::uint8_t> x) {
        exact::Verdict v;
        v.feasible = inst.feasible(x);
        v.cost = static_cast<double>(inst.cost(x));
        return v;
      });

  auto solve_once = [&] {
    ExactBackend backend;
    core::SaimOptions opts;
    opts.iterations = 60;
    opts.eta = 5.0;
    opts.penalty_alpha = 2.0;
    opts.seed = 1;
    core::SaimSolver solver(mapping.problem, backend, opts);
    return solver.solve(core::make_qkp_evaluator(inst));
  };
  const auto a = solve_once();
  const auto b = solve_once();
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.feasible_count, b.feasible_count);
  ASSERT_TRUE(a.found_feasible);
  EXPECT_DOUBLE_EQ(a.best_cost, exact.best_cost);
}

}  // namespace
}  // namespace saim::anneal
