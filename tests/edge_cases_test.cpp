// Edge-case and failure-injection tests across modules: degenerate sizes,
// zero/empty inputs, extreme parameters, and API misuse that must fail
// loudly rather than corrupt state.
#include <gtest/gtest.h>

#include <sstream>

#include "anneal/backend.hpp"
#include "core/penalty_method.hpp"
#include "core/result.hpp"
#include "core/saim_solver.hpp"
#include "ising/convert.hpp"
#include "ising/graph.hpp"
#include "lagrange/lagrangian_model.hpp"
#include "pbit/pbit_machine.hpp"
#include "problems/mkp.hpp"
#include "problems/qkp.hpp"
#include "problems/slack.hpp"

namespace saim {
namespace {

TEST(EdgeCases, SingleVariableQubo) {
  ising::QuboModel q(1);
  q.add_linear(0, -2.0);
  EXPECT_DOUBLE_EQ(q.energy(ising::Bits{1}), -2.0);
  EXPECT_DOUBLE_EQ(q.energy(ising::Bits{0}), 0.0);
  EXPECT_DOUBLE_EQ(q.flip_delta(ising::Bits{0}, 0), -2.0);
  EXPECT_EQ(q.nnz(), 0u);
  EXPECT_DOUBLE_EQ(q.density(), 0.0);
}

TEST(EdgeCases, EmptyQuboConversionRoundTrip) {
  ising::QuboModel q(0);
  const auto ising_model = ising::qubo_to_ising(q);
  EXPECT_EQ(ising_model.n(), 0u);
  const auto back = ising::ising_to_qubo(ising_model);
  EXPECT_EQ(back.n(), 0u);
}

TEST(EdgeCases, PBitMachineOnSingleSpin) {
  ising::IsingModel model(1);
  model.add_field(0, 1.0);
  pbit::PBitMachine machine(model);
  util::Xoshiro256pp rng(1);
  pbit::AnnealOptions opts;
  opts.sweeps = 50;
  const auto result = machine.anneal(pbit::Schedule::linear(20.0), opts, rng);
  EXPECT_EQ(result.last[0], 1);
  EXPECT_DOUBLE_EQ(result.last_energy, -1.0);
}

TEST(EdgeCases, AnnealWithZeroSweepsReturnsStart) {
  ising::IsingModel model(4);
  model.add_coupling(0, 1, 1.0);
  pbit::PBitMachine machine(model);
  util::Xoshiro256pp rng(2);
  ising::Spins start = {1, -1, 1, -1};
  pbit::AnnealOptions opts;
  opts.sweeps = 0;
  const auto result =
      machine.anneal_from(start, pbit::Schedule::linear(5.0), opts, rng);
  EXPECT_EQ(result.last, start);
  EXPECT_DOUBLE_EQ(result.last_energy, model.energy(start));
}

TEST(EdgeCases, SampleWithZeroSamplesNeverCallsObserver) {
  ising::IsingModel model(3);
  pbit::PBitMachine machine(model);
  util::Xoshiro256pp rng(3);
  bool called = false;
  machine.sample(1.0, 10, 0, rng, [&](const ising::Spins&) { called = true; });
  EXPECT_FALSE(called);
}

TEST(EdgeCases, ConstrainedProblemWithNoConstraints) {
  ising::QuboModel f(3);
  f.add_linear(0, -1.0);
  problems::ConstrainedProblem p(std::move(f), {}, 3);
  EXPECT_EQ(p.num_constraints(), 0u);
  const ising::Bits x = {1, 0, 0};
  EXPECT_TRUE(p.constraint_values(x).empty());
  EXPECT_DOUBLE_EQ(p.violation_sq(x), 0.0);
  EXPECT_DOUBLE_EQ(p.max_violation(x), 0.0);
  // SAIM degenerates gracefully to repeated unconstrained minimization.
  lagrange::LagrangianModel model(p, 1.0);
  EXPECT_DOUBLE_EQ(model.lagrangian(x), -1.0);
  model.set_lambda({});
  EXPECT_DOUBLE_EQ(model.ising().energy(ising::bits_to_spins(x)), -1.0);
}

TEST(EdgeCases, ConstrainedProblemValidation) {
  ising::QuboModel f(2);
  EXPECT_THROW(problems::ConstrainedProblem(std::move(f), {}, 3),
               std::invalid_argument);
  ising::QuboModel g(2);
  problems::LinearConstraint bad;
  bad.terms = {{5, 1.0}};
  EXPECT_THROW(problems::ConstrainedProblem(std::move(g), {bad}, 2),
               std::invalid_argument);
}

TEST(EdgeCases, ConstrainedProblemRejectsAVariableTwiceInOneRow) {
  // x1 twice in one row would square into a diagonal term; the same
  // variable in two different rows is fine.
  problems::LinearConstraint twice;
  twice.terms = {{0, 1.0}, {1, 2.0}, {1, 3.0}};
  twice.rhs = 1.0;
  EXPECT_THROW(
      problems::ConstrainedProblem(ising::QuboModel(3), {twice}, 3),
      std::invalid_argument);
  problems::LinearConstraint first;
  first.terms = {{0, 1.0}, {1, 2.0}};
  problems::LinearConstraint second;
  second.terms = {{1, 3.0}, {2, 1.0}};
  EXPECT_NO_THROW(
      problems::ConstrainedProblem(ising::QuboModel(3), {first, second}, 3));
}

TEST(EdgeCases, QkpAllItemsFitTrivially) {
  // Capacity >= total weight: every selection is feasible and SAIM's best
  // must be the all-ones profit.
  std::vector<std::int64_t> w(4 * 4, 0);
  const problems::QkpInstance inst("fits", {1, 2, 3, 4}, w, {1, 1, 1, 1},
                                   100);
  EXPECT_TRUE(inst.feasible(std::vector<std::uint8_t>{1, 1, 1, 1}));
  const auto mapping = problems::qkp_to_problem(inst);
  anneal::PBitBackend backend(pbit::Schedule::linear(10.0), 100);
  core::SaimOptions opts;
  opts.iterations = 20;
  opts.eta = 5.0;
  core::SaimSolver solver(mapping.problem, backend, opts);
  const auto result = solver.solve(core::make_qkp_evaluator(inst));
  ASSERT_TRUE(result.found_feasible);
  EXPECT_DOUBLE_EQ(result.best_cost, -10.0);
}

TEST(EdgeCases, MkpZeroCapacityForcesEmptySelection) {
  const problems::MkpInstance inst("zero", {5, 7}, {1, 1, 1, 1}, {0, 10});
  EXPECT_FALSE(inst.feasible(std::vector<std::uint8_t>{1, 0}));
  EXPECT_TRUE(inst.feasible(std::vector<std::uint8_t>{0, 0}));
  const auto mapping = problems::mkp_to_problem(inst);
  // Zero capacity -> zero slack bits for that row.
  EXPECT_EQ(mapping.slack[0].num_bits(), 0u);
}

TEST(EdgeCases, SlackEncodingHugeBound) {
  const auto enc = problems::make_slack_encoding((std::int64_t{1} << 40));
  EXPECT_EQ(enc.num_bits(), 41u);
  EXPECT_EQ(enc.decode(enc.encode(123456789012LL)), 123456789012LL);
}

TEST(EdgeCases, OptimalityPercentEdge) {
  core::SolveResult r;
  EXPECT_DOUBLE_EQ(r.optimality_percent(-100.0), 0.0);  // no samples
  r.feasible_costs = {-100.0, -99.0, -100.0, -100.0};
  EXPECT_DOUBLE_EQ(r.optimality_percent(-100.0), 75.0);
  EXPECT_DOUBLE_EQ(r.optimality_percent(-101.0), 0.0);
  EXPECT_DOUBLE_EQ(r.optimality_percent(-99.0), 100.0);
}

TEST(EdgeCases, GraphLoadFailureModes) {
  std::stringstream empty("");
  EXPECT_THROW(ising::Graph::load(empty), std::runtime_error);
  std::stringstream truncated("3 2\n0 1 1.0\n");
  EXPECT_THROW(ising::Graph::load(truncated), std::runtime_error);
  std::stringstream bad_vertex("2 1\n0 5 1.0\n");
  EXPECT_THROW(ising::Graph::load(bad_vertex), std::out_of_range);
}

TEST(EdgeCases, ScheduleZeroTotalSweeps) {
  // total = 0 is degenerate; beta() must still return a finite value.
  const auto s = pbit::Schedule::linear(10.0);
  EXPECT_DOUBLE_EQ(s.beta(0, 0), 10.0);
}

TEST(EdgeCases, LagrangianWithZeroPenaltyIsPureLagrangian) {
  ising::QuboModel f(2);
  f.add_linear(0, -1.0);
  problems::LinearConstraint g;
  g.terms = {{0, 1.0}, {1, 1.0}};
  g.rhs = 1.0;
  problems::ConstrainedProblem p(std::move(f), {g}, 2);
  lagrange::LagrangianModel model(p, 0.0);
  model.set_lambda(std::vector<double>{3.0});
  const ising::Bits x = {1, 1};
  // L = f + 0 + 3*(2-1) = -1 + 3.
  EXPECT_DOUBLE_EQ(model.ising().energy(ising::bits_to_spins(x)), 2.0);
}

TEST(EdgeCases, EvaluatorsHandleAllZeroConfiguration) {
  const auto qkp = problems::make_paper_qkp(10, 25, 1);
  const auto eval = core::make_qkp_evaluator(qkp);
  const std::vector<std::uint8_t> zeros(qkp.n() + 8, 0);
  const auto v = eval(zeros);
  EXPECT_TRUE(v.feasible);
  EXPECT_DOUBLE_EQ(v.cost, 0.0);
}

}  // namespace
}  // namespace saim
