#include "util/stop_token.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "anneal/backend.hpp"
#include "anneal/exact_backend.hpp"
#include "anneal/simulated_annealing.hpp"
#include "core/penalty_method.hpp"
#include "core/saim_solver.hpp"
#include "lagrange/lagrangian_model.hpp"
#include "pbit/schedule.hpp"
#include "problems/qkp.hpp"

namespace saim {
namespace {

TEST(StopToken, DefaultTokenNeverStops) {
  util::StopToken token;
  EXPECT_FALSE(token.possible());
  EXPECT_FALSE(token.stop_requested());
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.deadline_expired());
}

TEST(StopToken, RequestStopTripsEveryToken) {
  util::StopSource source;
  const util::StopToken token = source.token();
  EXPECT_TRUE(token.possible());
  EXPECT_FALSE(token.stop_requested());
  source.request_stop();
  EXPECT_TRUE(token.stop_requested());
  EXPECT_TRUE(token.cancelled());
  EXPECT_FALSE(token.deadline_expired());
  EXPECT_TRUE(source.token().stop_requested());  // late tokens see it too
}

TEST(StopToken, DeadlineExpiresWithoutCancel) {
  auto source =
      util::StopSource::with_deadline(std::chrono::steady_clock::now() -
                                      std::chrono::milliseconds(1));
  const util::StopToken token = source.token();
  EXPECT_TRUE(token.stop_requested());
  EXPECT_TRUE(token.deadline_expired());
  EXPECT_FALSE(token.cancelled());  // distinguishes kDeadline from kCancelled
}

TEST(StopToken, FutureDeadlineDoesNotStopYet) {
  auto source = util::StopSource::after(std::chrono::hours(1));
  EXPECT_FALSE(source.token().stop_requested());
}

class SolverStopTest : public ::testing::Test {
 protected:
  SolverStopTest()
      : instance_(problems::make_paper_qkp(30, 50, 1)),
        mapping_(problems::qkp_to_problem(instance_)) {}

  core::SolveResult solve_with(util::StopToken token,
                               std::size_t iterations = 50) {
    anneal::PBitBackend backend(pbit::Schedule::linear(10.0), 100);
    core::SaimOptions options;
    options.iterations = iterations;
    options.seed = 3;
    core::SaimSolver solver(mapping_.problem, backend, options);
    return solver.solve(core::make_qkp_evaluator(instance_), token);
  }

  problems::QkpInstance instance_;
  problems::QkpMapping mapping_;
};

TEST_F(SolverStopTest, CompletesWithDefaultToken) {
  const auto result = solve_with(util::StopToken{});
  EXPECT_EQ(result.status, core::Status::kCompleted);
  EXPECT_EQ(result.total_runs, 50u);
}

TEST_F(SolverStopTest, PreCancelledTokenReturnsEmptyPartial) {
  util::StopSource source;
  source.request_stop();
  const auto result = solve_with(source.token());
  EXPECT_EQ(result.status, core::Status::kCancelled);
  EXPECT_EQ(result.total_runs, 0u);
  EXPECT_FALSE(result.found_feasible);
}

TEST_F(SolverStopTest, ExpiredDeadlineReportsDeadlineStatus) {
  auto source =
      util::StopSource::with_deadline(std::chrono::steady_clock::now());
  const auto result = solve_with(source.token());
  EXPECT_EQ(result.status, core::Status::kDeadline);
  EXPECT_EQ(result.total_runs, 0u);
}

TEST_F(SolverStopTest, MidSolveCancelKeepsPartialProgress) {
  // Cancel from another thread while the dual ascent runs; the solver must
  // come back early with the samples it already judged.
  util::StopSource source;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    source.request_stop();
  });
  const auto result = solve_with(source.token(), 1000000);
  canceller.join();
  EXPECT_EQ(result.status, core::Status::kCancelled);
  EXPECT_GT(result.total_runs, 0u);
  EXPECT_LT(result.total_runs, 1000000u);
}

TEST_F(SolverStopTest, CancelledResultIsPrefixOfFullRun) {
  // Determinism of partial results at outer-iteration granularity: a solve
  // stopped after its RNG stream saw k iterations matches the first k
  // iterations of an unstopped solve (same seed).
  anneal::PBitBackend backend(pbit::Schedule::linear(10.0), 100);
  core::SaimOptions options;
  options.iterations = 20;
  options.seed = 3;
  options.record_history = true;
  core::SaimSolver full_solver(mapping_.problem, backend, options);
  const auto full =
      full_solver.solve(core::make_qkp_evaluator(instance_));

  anneal::PBitBackend backend2(pbit::Schedule::linear(10.0), 100);
  // A "cancelled" run that stops by exhausting iterations = 7 is the
  // reference; emulate via options. (A token-stopped run lands on a
  // timing-dependent k, so compare through the recorded history instead.)
  core::SaimOptions short_options = options;
  short_options.iterations = 7;
  core::SaimSolver seven(mapping_.problem, backend2, short_options);
  const auto partial = seven.solve(core::make_qkp_evaluator(instance_));

  ASSERT_GE(full.history.size(), 7u);
  ASSERT_EQ(partial.history.size(), 7u);
  for (std::size_t k = 0; k < 7; ++k) {
    EXPECT_DOUBLE_EQ(partial.history[k].sample_cost,
                     full.history[k].sample_cost);
    EXPECT_DOUBLE_EQ(partial.history[k].lagrangian_energy,
                     full.history[k].lagrangian_energy);
  }
}

TEST_F(SolverStopTest, StopDuringFinalIterationDowngradesStatus) {
  // One outer iteration whose inner run is truncated by the deadline: the
  // loop exits without re-polling the token, but the result must still
  // report kDeadline — a kCompleted here would let services cache a
  // timing-dependent truncated solve.
  anneal::PBitBackend backend(pbit::Schedule::linear(10.0), 50000000);
  core::SaimOptions options;
  options.iterations = 1;
  options.seed = 3;
  core::SaimSolver solver(mapping_.problem, backend, options);
  auto source =
      util::StopSource::after(std::chrono::milliseconds(20));
  const auto result =
      solver.solve(core::make_qkp_evaluator(instance_), source.token());
  EXPECT_EQ(result.status, core::Status::kDeadline);
  EXPECT_EQ(result.total_runs, 1u);
  EXPECT_LT(result.total_sweeps, 50000000u);  // the run really truncated
}

TEST(BackendStop, SequentialBatchReturnsPartialBatch) {
  // ExactBackend keeps the base run_batch: run() after run() on the
  // caller's rng, with the stop checked between runs.
  ising::IsingModel model(4);
  model.add_coupling(0, 1, 1.0);
  model.add_coupling(1, 2, -0.5);
  model.add_field(3, 0.25);
  anneal::ExactBackend backend;
  backend.bind(model);

  util::StopSource source;
  backend.set_stop_token(source.token());
  util::Xoshiro256pp rng(1);
  source.request_stop();
  const auto runs = backend.run_batch(rng, 8);
  // The first run always happens; the stop check sits between runs.
  EXPECT_EQ(runs.size(), 1u);
}

TEST(BackendStop, ParallelBatchRefusesToStartWhenStopped) {
  const auto inst = problems::make_paper_qkp(20, 50, 1);
  const auto mapping = problems::qkp_to_problem(inst);
  anneal::PBitBackend backend(pbit::Schedule::linear(5.0), 50);
  lagrange::LagrangianModel model(mapping.problem, 10.0);
  backend.bind(model.ising());

  util::StopSource source;
  source.request_stop();
  backend.set_stop_token(source.token());
  util::Xoshiro256pp rng(1);
  EXPECT_TRUE(backend.run_batch(rng, 8).empty());
  // The base draw happens regardless of the stop: the next caller sees
  // the same stream position as after a batch that ran.
  util::Xoshiro256pp ref_rng(1);
  (void)ref_rng();
  EXPECT_EQ(rng(), ref_rng());
}

TEST(BackendStop, AnnealHonoursChunkedStopChecks) {
  const auto inst = problems::make_paper_qkp(20, 50, 1);
  const auto mapping = problems::qkp_to_problem(inst);
  lagrange::LagrangianModel model(mapping.problem, 10.0);
  pbit::PBitMachine machine(model.ising());

  util::StopSource source;
  source.request_stop();
  const util::StopToken token = source.token();
  pbit::AnnealOptions options;
  options.sweeps = 10000;
  options.stop = &token;
  options.stop_interval = 16;
  util::Xoshiro256pp rng(7);
  const auto result =
      machine.anneal(pbit::Schedule::linear(5.0), options, rng);
  // Stopped at the first chunk boundary: a valid partial sample with the
  // true sweep count.
  EXPECT_EQ(result.sweeps, 16u);
  EXPECT_EQ(result.last.size(), machine.n());
}

TEST(BackendStop, MetropolisHonoursBetweenSweepStopChecks) {
  const auto inst = problems::make_paper_qkp(20, 50, 1);
  const auto mapping = problems::qkp_to_problem(inst);
  lagrange::LagrangianModel model(mapping.problem, 10.0);
  const ising::IsingModel& ising = model.ising();

  util::StopSource source;
  source.request_stop();
  const util::StopToken token = source.token();
  anneal::SaOptions options;
  options.sweeps = 10000;
  options.stop = &token;
  const anneal::MetropolisSa sa(ising);
  util::Xoshiro256pp rng(7);
  const auto result = sa.run(pbit::Schedule::linear(5.0), options, rng);
  // Stopped at the first poll, never inside a sweep: a valid partial
  // sample whose incrementally tracked energy matches a fresh sum.
  EXPECT_EQ(result.sweeps, util::kStopPollInterval);
  ASSERT_EQ(result.last.size(), ising.n());
  EXPECT_NEAR(result.last_energy, ising.energy(result.last), 1e-9);

  // The backend passes its own token down to the same poll.
  anneal::MetropolisSaBackend backend(pbit::Schedule::linear(5.0), 10000);
  backend.bind(ising);
  backend.set_stop_token(token);
  const auto run = backend.run(rng);
  EXPECT_EQ(run.sweeps, util::kStopPollInterval);
  EXPECT_NEAR(run.last_energy, ising.energy(run.last), 1e-9);
}

TEST(BackendStop, MetropolisBatchHonoursDeadline) {
  // A batch that started before its deadline still stops mid-run: every
  // replica truncates at a between-sweep poll instead of running its
  // (here absurd) sweep budget to the end.
  const auto inst = problems::make_paper_qkp(20, 50, 1);
  const auto mapping = problems::qkp_to_problem(inst);
  lagrange::LagrangianModel model(mapping.problem, 10.0);
  anneal::MetropolisSaBackend backend(pbit::Schedule::linear(5.0), 50000000);
  backend.bind(model.ising());
  // Long enough that the batch's entry check always sees a live token.
  auto source = util::StopSource::after(std::chrono::milliseconds(100));
  backend.set_stop_token(source.token());
  util::Xoshiro256pp rng(3);
  const auto runs = backend.run_batch(rng, 2);
  ASSERT_EQ(runs.size(), 2u);
  for (const auto& r : runs) {
    EXPECT_LT(r.sweeps, 50000000u);
    EXPECT_EQ(r.sweeps % util::kStopPollInterval, 0u);
    EXPECT_EQ(r.last.size(), model.ising().n());
  }
}

}  // namespace
}  // namespace saim
