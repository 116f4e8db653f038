#include "anneal/sqa.hpp"

#include <gtest/gtest.h>

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

TEST(Sqa, PerpCouplingPositiveAndDivergesAsGammaVanishes) {
  const auto model = spin_glass(6, 1);
  SqaOptions opts;
  SimulatedQuantumAnnealer sqa(model, opts);
  const double weak = sqa.perp_coupling(3.0);
  const double strong = sqa.perp_coupling(0.01);
  EXPECT_GT(weak, 0.0);
  EXPECT_GT(strong, weak);  // slices lock together as Gamma -> 0
}

TEST(Sqa, FindsSpinGlassGroundState) {
  const auto model = spin_glass(10, 3);
  SqaOptions opts;
  opts.trotter_slices = 12;
  opts.sweeps = 600;
  opts.beta = 4.0;
  SimulatedQuantumAnnealer sqa(model, opts);
  util::Xoshiro256pp rng(5);
  const auto result = sqa.run(rng);
  EXPECT_DOUBLE_EQ(result.last_energy, exact_ground(model));
}

TEST(Sqa, ReportedEnergiesMatchStates) {
  const auto model = spin_glass(9, 7);
  SqaOptions opts;
  opts.sweeps = 100;
  SimulatedQuantumAnnealer sqa(model, opts);
  util::Xoshiro256pp rng(2);
  const auto result = sqa.run(rng);
  EXPECT_NEAR(model.energy(result.last), result.last_energy, 1e-7);
}

TEST(Sqa, SweepAccountingIncludesSlices) {
  const auto model = spin_glass(6, 2);
  SqaOptions opts;
  opts.trotter_slices = 8;
  opts.sweeps = 50;
  SimulatedQuantumAnnealer sqa(model, opts);
  util::Xoshiro256pp rng(1);
  EXPECT_EQ(sqa.run(rng).sweeps, 400u);
}

TEST(Sqa, InvalidOptionsThrow) {
  const auto model = spin_glass(5, 4);
  SqaOptions bad;
  bad.trotter_slices = 1;
  EXPECT_THROW(SimulatedQuantumAnnealer(model, bad), std::invalid_argument);
  SqaOptions bad2;
  bad2.beta = 0.0;
  EXPECT_THROW(SimulatedQuantumAnnealer(model, bad2), std::invalid_argument);
  SqaOptions bad3;
  bad3.gamma_end = 0.0;
  EXPECT_THROW(SimulatedQuantumAnnealer(model, bad3), std::invalid_argument);
  SqaOptions bad4;
  bad4.gamma_start = 0.005;
  bad4.gamma_end = 0.01;
  EXPECT_THROW(SimulatedQuantumAnnealer(model, bad4), std::invalid_argument);
}

TEST(SqaBackend, RunBeforeBindThrows) {
  SqaBackend backend(SqaOptions{});
  util::Xoshiro256pp rng(1);
  EXPECT_THROW(backend.run(rng), std::logic_error);
}

TEST(SqaBackend, DrivesSaimToQkpOptimum) {
  const auto inst = problems::make_paper_qkp(12, 50, 9);
  const auto mapping = problems::qkp_to_problem(inst);
  const auto exact = exact::exhaustive_minimize(
      inst.n(), [&](std::span<const std::uint8_t> x) {
        exact::Verdict v;
        v.feasible = inst.feasible(x);
        v.cost = static_cast<double>(inst.cost(x));
        return v;
      });

  SqaOptions sopts;
  sopts.trotter_slices = 8;
  sopts.sweeps = 200;
  sopts.beta = 8.0;
  SqaBackend backend(sopts);
  core::SaimOptions opts;
  opts.iterations = 120;
  opts.eta = 20.0;
  opts.seed = 11;
  core::SaimSolver solver(mapping.problem, backend, opts);
  const auto result = solver.solve(core::make_qkp_evaluator(inst));
  ASSERT_TRUE(result.found_feasible);
  EXPECT_DOUBLE_EQ(result.best_cost, exact.best_cost);
}

TEST(SqaBackend, DeterministicPerSeed) {
  const auto model = spin_glass(8, 6);
  SqaOptions opts;
  opts.sweeps = 80;
  SqaBackend backend(opts);
  backend.bind(model);
  util::Xoshiro256pp a(3);
  util::Xoshiro256pp b(3);
  EXPECT_EQ(backend.run(a).last, backend.run(b).last);
}

}  // namespace
}  // namespace saim::anneal
