// Deterministic parallel replicas: run_batch must be bit-reproducible
// regardless of thread count. The in-repo engine backends implement the
// contract "replica r is run on a fresh Xoshiro256pp(derive_seed(base, r))
// stream, where base is one draw from the caller's rng" — which makes each
// replica independent of scheduling by construction. These tests pin down
// (a) that contract, (b) reproducibility across calls, and (c) the
// thread-count invariance of util::parallel_for and multi_start.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "anneal/backend.hpp"
#include "anneal/exact_backend.hpp"
#include "anneal/parallel_tempering.hpp"
#include "anneal/simulated_annealing.hpp"
#include "anneal/sqa.hpp"
#include "anneal/tabu.hpp"
#include "core/multi_start.hpp"
#include "core/penalty_method.hpp"
#include "ising/ising_model.hpp"
#include "problems/qkp.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace saim {
namespace {

ising::IsingModel small_model(std::size_t n, std::uint64_t seed) {
  ising::IsingModel model(n);
  util::Xoshiro256pp rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform01() < 0.4) model.add_coupling(i, j, rng.uniform_sym());
    }
    model.add_field(i, rng.uniform_sym());
  }
  return model;
}

void expect_same_results(const std::vector<anneal::RunResult>& a,
                         const std::vector<anneal::RunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].last, b[i].last) << "replica " << i;
    EXPECT_EQ(a[i].last_energy, b[i].last_energy) << "replica " << i;
    EXPECT_EQ(a[i].sweeps, b[i].sweeps) << "replica " << i;
  }
}

std::vector<std::unique_ptr<anneal::IsingSolverBackend>> engine_backends() {
  std::vector<std::unique_ptr<anneal::IsingSolverBackend>> backends;
  backends.push_back(std::make_unique<anneal::PBitBackend>(
      pbit::Schedule::linear(5.0), 60));
  backends.push_back(std::make_unique<anneal::MetropolisSaBackend>(
      pbit::Schedule::linear(5.0), 60));
  anneal::PtOptions pt;
  pt.replicas = 4;
  pt.sweeps = 40;
  backends.push_back(std::make_unique<anneal::ParallelTemperingBackend>(pt));
  anneal::SqaOptions sqa;
  sqa.trotter_slices = 4;
  sqa.sweeps = 40;
  backends.push_back(std::make_unique<anneal::SqaBackend>(sqa));
  anneal::TabuOptions tabu;
  tabu.steps = 200;
  backends.push_back(std::make_unique<anneal::TabuBackend>(tabu));
  return backends;
}

TEST(RunBatch, ReproducibleAcrossCallsForAllEngineBackends) {
  const auto model = small_model(20, 3);
  for (auto& backend : engine_backends()) {
    backend->bind(model);
    util::Xoshiro256pp rng_a(77);
    util::Xoshiro256pp rng_b(77);
    const auto batch_a = backend->run_batch(rng_a, 5);
    const auto batch_b = backend->run_batch(rng_b, 5);
    SCOPED_TRACE(backend->name());
    expect_same_results(batch_a, batch_b);
  }
}

TEST(RunBatch, ReplicaStreamsFollowTheDerivedSeedContract) {
  // run_batch(rng, R)[r] must equal a run() on a fresh backend fed the
  // stream Xoshiro256pp(derive_seed(base, r)) — so replica r depends only
  // on (base, r), never on sibling replicas or thread scheduling.
  const auto model = small_model(20, 5);
  auto backends = engine_backends();
  auto reference_backends = engine_backends();
  for (std::size_t b = 0; b < backends.size(); ++b) {
    backends[b]->bind(model);
    reference_backends[b]->bind(model);
    SCOPED_TRACE(backends[b]->name());

    util::Xoshiro256pp rng(123);
    const auto batch = backends[b]->run_batch(rng, 4);

    util::Xoshiro256pp seeder(123);
    const std::uint64_t base = seeder();
    std::vector<anneal::RunResult> manual;
    for (std::size_t r = 0; r < 4; ++r) {
      util::Xoshiro256pp replica_rng(util::derive_seed(base, r));
      manual.push_back(reference_backends[b]->run(replica_rng));
    }
    expect_same_results(batch, manual);
  }
}

TEST(RunBatch, BatchThreadCapDoesNotChangeResults) {
  // Replica r depends only on (base draw, r), so forcing the pool to one
  // thread vs several must yield bit-identical batches.
  const auto model = small_model(20, 9);
  auto sequential = engine_backends();
  auto pooled = engine_backends();
  for (std::size_t b = 0; b < sequential.size(); ++b) {
    sequential[b]->bind(model);
    pooled[b]->bind(model);
    sequential[b]->set_batch_threads(1);
    pooled[b]->set_batch_threads(4);
    SCOPED_TRACE(sequential[b]->name());

    util::Xoshiro256pp rng_a(31);
    util::Xoshiro256pp rng_b(31);
    expect_same_results(sequential[b]->run_batch(rng_a, 5),
                        pooled[b]->run_batch(rng_b, 5));
  }
}

TEST(RunBatch, DefaultImplementationLoopsRun) {
  // The exact backend keeps the base-class batch: deterministic repeats of
  // the (deterministic) ground-state solve.
  const auto model = small_model(10, 7);
  anneal::ExactBackend exact;
  exact.bind(model);
  util::Xoshiro256pp rng(1);
  const auto batch = exact.run_batch(rng, 3);
  ASSERT_EQ(batch.size(), 3u);
  for (const auto& r : batch) {
    EXPECT_EQ(r.last, batch[0].last);
    EXPECT_EQ(r.last_energy, batch[0].last_energy);
  }
}

// ----------------------------------------------------------- parallel_for

TEST(ParallelFor, CoversEveryIndexExactlyOnceAtAnyThreadCount) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{7}, std::size_t{0}}) {
    std::vector<std::atomic<int>> hits(101);
    util::parallel_for(
        hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, threads);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      util::parallel_for(
          8,
          [](std::size_t i) {
            if (i == 3) throw std::runtime_error("boom");
          },
          2),
      std::runtime_error);
}

TEST(ParallelFor, ZeroCountIsANoOp) {
  bool called = false;
  util::parallel_for(0, [&](std::size_t) { called = true; }, 4);
  EXPECT_FALSE(called);
}

// ------------------------------------------------------------- multi_start

TEST(MultiStart, ThreadCountDoesNotChangeResults) {
  const auto inst = problems::make_paper_qkp(12, 50, 9);
  const auto mapping = problems::qkp_to_problem(inst);
  core::SaimOptions opts;
  opts.iterations = 30;
  opts.eta = 20.0;

  auto run_with_threads = [&](std::size_t threads) {
    core::MultiStartOptions multi;
    multi.restarts = 4;
    multi.seed = 7;
    multi.threads = threads;
    return core::multi_start_saim(
        mapping.problem,
        [] {
          return std::make_unique<anneal::PBitBackend>(
              pbit::Schedule::linear(10.0), 100);
        },
        opts, multi, core::make_qkp_evaluator(inst));
  };

  const auto sequential = run_with_threads(1);
  const auto parallel = run_with_threads(4);
  const auto automatic = run_with_threads(0);

  EXPECT_EQ(sequential.best.best_cost, parallel.best.best_cost);
  EXPECT_EQ(sequential.best.best_x, parallel.best.best_x);
  EXPECT_EQ(sequential.best_restart, parallel.best_restart);
  EXPECT_EQ(sequential.feasible_restarts, parallel.feasible_restarts);
  EXPECT_EQ(sequential.total_sweeps, parallel.total_sweeps);
  EXPECT_EQ(sequential.best.best_cost, automatic.best.best_cost);
  EXPECT_EQ(sequential.best_restart, automatic.best_restart);
}

// ------------------------------------------------------ SAIM with replicas

TEST(SaimReplicas, BatchedSolveAccountsAllReplicaRuns) {
  const auto inst = problems::make_paper_qkp(12, 50, 4);
  const auto mapping = problems::qkp_to_problem(inst);

  anneal::PBitBackend backend(pbit::Schedule::linear(10.0), 100);
  core::SaimOptions opts;
  opts.iterations = 25;
  opts.eta = 20.0;
  opts.replicas = 3;
  core::SaimSolver solver(mapping.problem, backend, opts);
  const auto result = solver.solve(core::make_qkp_evaluator(inst));

  EXPECT_EQ(result.total_runs, 25u * 3u);
  EXPECT_EQ(result.total_sweeps, 25u * 3u * 100u);
  EXPECT_TRUE(result.found_feasible);
}

TEST(SaimReplicas, BatchedSolveIsReproducible) {
  const auto inst = problems::make_paper_qkp(12, 50, 4);
  const auto mapping = problems::qkp_to_problem(inst);

  auto solve_once = [&] {
    anneal::PBitBackend backend(pbit::Schedule::linear(10.0), 100);
    core::SaimOptions opts;
    opts.iterations = 25;
    opts.eta = 20.0;
    opts.replicas = 3;
    opts.seed = 11;
    core::SaimSolver solver(mapping.problem, backend, opts);
    return solver.solve(core::make_qkp_evaluator(inst));
  };

  const auto a = solve_once();
  const auto b = solve_once();
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best_x, b.best_x);
  EXPECT_EQ(a.feasible_count, b.feasible_count);
}

}  // namespace
}  // namespace saim
