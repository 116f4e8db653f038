// Same-instance batch scheduling + warm-start pool, end to end through
// SolveService: determinism of batch members vs solo solves, per-member
// demultiplexing of deadlines and cancellation, and the opt-in warm-start
// contract (pool consulted only when asked; pooled samples feasible).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/penalty_method.hpp"
#include "core/saim_solver.hpp"
#include "problems/qkp.hpp"
#include "service/backend_factory.hpp"
#include "service/solve_service.hpp"

namespace saim {
namespace {

using namespace std::chrono_literals;

struct TestProblem {
  std::shared_ptr<problems::QkpInstance> instance;
  std::shared_ptr<const problems::ConstrainedProblem> problem;
};

TestProblem make_test_problem(std::size_t n = 30, int index = 1) {
  TestProblem t;
  t.instance = std::make_shared<problems::QkpInstance>(
      problems::make_paper_qkp(n, 50, index));
  t.problem = std::make_shared<problems::ConstrainedProblem>(
      problems::qkp_to_problem(*t.instance).problem);
  return t;
}

service::SolveRequest make_request(const TestProblem& t,
                                   std::size_t iterations = 20,
                                   std::uint64_t seed = 1) {
  service::SolveRequest request;
  request.problem = t.problem;
  request.evaluator = [inst = t.instance,
                       ev = core::make_qkp_evaluator(*t.instance)](
                          std::span<const std::uint8_t> x) { return ev(x); };
  request.backend.sweeps = 100;
  request.options.iterations = iterations;
  request.options.seed = seed;
  return request;
}

core::SolveResult solve_direct(const TestProblem& t, std::size_t iterations,
                               std::uint64_t seed) {
  auto request = make_request(t, iterations, seed);
  auto backend = service::make_backend(request.backend);
  core::SaimSolver solver(*t.problem, *backend, request.options);
  return solver.solve(core::make_qkp_evaluator(*t.instance));
}

TEST(ServiceBatch, MembersMatchSoloBitForBitWithWarmStartOff) {
  // Even with a HOT warm pool for this very problem, batch members that
  // did not opt in must reproduce the solo solver exactly: warm starts are
  // opt-in, and batching is a pure scheduling optimization.
  service::SolveService svc(
      {.workers = 1, .cache_capacity = 0, .max_batch = 8});
  const auto t = make_test_problem();
  svc.submit(make_request(t, 20, 77)).wait();  // completed: pool is hot

  // Occupy the single worker so the follow-ups pile up in the queue and
  // get drained into one batch.
  const auto blocker = make_test_problem(30, 7);
  auto head = svc.submit(make_request(blocker, 200));

  std::vector<service::JobHandle> handles;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    handles.push_back(svc.submit(make_request(t, 30, seed)));
  }
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto response = handles[seed - 1].wait();
    ASSERT_EQ(response->status, core::Status::kCompleted);
    const auto direct = solve_direct(t, 30, seed);
    EXPECT_EQ(response->result->best_cost, direct.best_cost) << seed;
    EXPECT_EQ(response->result->best_x, direct.best_x) << seed;
    EXPECT_EQ(response->result->best_config, direct.best_config) << seed;
    EXPECT_EQ(response->result->feasible_count, direct.feasible_count);
    EXPECT_EQ(response->result->total_sweeps, direct.total_sweeps);
    EXPECT_FALSE(response->warm_started);
  }
  head.wait();
  const auto stats = svc.stats();
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GE(stats.batched_jobs, 2u);
  EXPECT_EQ(stats.warm_seeded, 0u);  // nobody opted in
}

TEST(ServiceBatch, MixedDeadlinesDemultiplex) {
  // One batch member carries a deadline that expires mid-batch; its
  // partial best comes back as kDeadline while its batch-mate completes
  // untouched.
  service::SolveService svc(
      {.workers = 1, .cache_capacity = 0, .max_batch = 8});
  const auto blocker = make_test_problem(30, 7);
  const auto t = make_test_problem();
  auto head = svc.submit(make_request(blocker, 60));

  // The deadline-free job is popped first and the deadline-carrying twin
  // is drained into ITS batch (a deadline job popped first would batch
  // nothing extra — lockstep mates would dilute its time budget).
  auto b = svc.submit(make_request(t, 20, 2));
  auto doomed = make_request(t, 1000000, 1);
  doomed.timeout = 300ms;
  auto a = svc.submit(std::move(doomed));

  const auto rb = b.wait();
  EXPECT_EQ(rb->status, core::Status::kCompleted);
  EXPECT_EQ(rb->result->total_runs, 20u);

  const auto ra = a.wait();
  EXPECT_EQ(ra->status, core::Status::kDeadline);
  EXPECT_LT(ra->result->total_runs, 1000000u);
  if (ra->batch_size == 2) {  // the two were batched (no timing fluke)
    EXPECT_EQ(rb->batch_size, 2u);
  }
  head.wait();
  EXPECT_EQ(svc.stats().deadline_expired, 1u);
}

TEST(ServiceBatch, CancelledMemberLeavesBatchMatesAlone) {
  service::SolveService svc(
      {.workers = 1, .cache_capacity = 0, .max_batch = 8});
  const auto blocker = make_test_problem(30, 7);
  const auto t = make_test_problem();
  auto head = svc.submit(make_request(blocker, 60));

  auto a = svc.submit(make_request(t, 1000000, 1));
  auto b = svc.submit(make_request(t, 25, 2));

  // The short member settles (and its waiter wakes) while the long member
  // is still mid-batch — per-member demultiplexing, not batch-final fanout.
  const auto rb = b.wait();
  EXPECT_EQ(rb->status, core::Status::kCompleted);
  EXPECT_EQ(rb->result->total_runs, 25u);

  a.cancel();
  const auto ra = a.wait();
  EXPECT_EQ(ra->status, core::Status::kCancelled);
  EXPECT_LT(ra->result->total_runs, 1000000u);
  head.wait();
  EXPECT_EQ(svc.stats().cancelled, 1u);
}

TEST(ServiceBatch, WarmStartImportsPoolBestAndStaysFeasible) {
  service::SolveService svc({.workers = 1, .cache_capacity = 8});
  const auto t = make_test_problem();

  const auto cold = svc.submit(make_request(t, 25, 1)).wait();
  ASSERT_EQ(cold->status, core::Status::kCompleted);
  ASSERT_TRUE(cold->result->found_feasible);
  const double cold_best = cold->result->best_cost;

  auto warm_request = make_request(t, 5, 2);
  warm_request.warm_start = true;
  const auto warm = svc.submit(std::move(warm_request)).wait();
  ASSERT_EQ(warm->status, core::Status::kCompleted);
  EXPECT_TRUE(warm->warm_started);
  EXPECT_TRUE(warm->result->found_feasible);
  // The pool's best was imported, so the warm job can never fall short of
  // the cold best — and its best configuration must judge feasible on the
  // raw instance.
  EXPECT_LE(warm->result->best_cost, cold_best);
  ASSERT_FALSE(warm->result->best_config.empty());
  const auto verdict =
      core::make_qkp_evaluator(*t.instance)(warm->result->best_config);
  EXPECT_TRUE(verdict.feasible);
  EXPECT_EQ(svc.stats().warm_seeded, 1u);
}

TEST(ServiceBatch, WarmJobsBypassCacheAndCoalescing) {
  service::SolveService svc({.workers = 1, .cache_capacity = 8});
  const auto t = make_test_problem();
  svc.submit(make_request(t, 20, 1)).wait();  // fills pool + cache

  auto warm_a = make_request(t, 10, 5);
  warm_a.warm_start = true;
  auto warm_b = make_request(t, 10, 5);  // identical twin, also warm
  warm_b.warm_start = true;

  // Warm and cold twins must never collide in the cache.
  auto cold_twin = make_request(t, 10, 5);
  EXPECT_NE(service::SolveService::request_fingerprint(warm_a),
            service::SolveService::request_fingerprint(cold_twin));

  const auto ra = svc.submit(std::move(warm_a)).wait();
  const auto rb = svc.submit(std::move(warm_b)).wait();
  EXPECT_FALSE(ra->cache_hit);
  EXPECT_FALSE(rb->cache_hit);
  // Sequential identical warm submissions both execute: no replay, no
  // coalescing — each sees the pool as it stands when it runs.
  EXPECT_EQ(svc.stats().executed, 3u);
  EXPECT_EQ(svc.stats().coalesced, 0u);
}

TEST(ServiceBatch, WarmStartOffPoolDisabled) {
  // warm_pool_capacity = 0 turns the pool off entirely: opt-in jobs run
  // cold instead of being seeded.
  service::SolveService svc(
      {.workers = 1, .cache_capacity = 0, .warm_pool_capacity = 0});
  const auto t = make_test_problem();
  svc.submit(make_request(t, 20, 1)).wait();

  auto warm_request = make_request(t, 10, 2);
  warm_request.warm_start = true;
  const auto warm = svc.submit(std::move(warm_request)).wait();
  EXPECT_EQ(warm->status, core::Status::kCompleted);
  EXPECT_FALSE(warm->warm_started);
  EXPECT_EQ(svc.stats().warm_seeded, 0u);
}

TEST(ServiceBatch, MaxBatchOneDisablesBatching) {
  service::SolveService svc(
      {.workers = 1, .cache_capacity = 0, .max_batch = 1});
  const auto blocker = make_test_problem(30, 7);
  const auto t = make_test_problem();
  auto head = svc.submit(make_request(blocker, 100));
  auto a = svc.submit(make_request(t, 15, 1));
  auto b = svc.submit(make_request(t, 15, 2));
  EXPECT_EQ(a.wait()->batch_size, 1u);
  EXPECT_EQ(b.wait()->batch_size, 1u);
  head.wait();
  EXPECT_EQ(svc.stats().batches, 0u);
  EXPECT_EQ(svc.stats().batched_jobs, 0u);
}

TEST(ServiceBatch, DifferentBackendsNeverShareABatch) {
  // Same problem, different backend spec -> different batch key: both
  // must run (correctly, on their own backend), never fused.
  service::SolveService svc(
      {.workers = 1, .cache_capacity = 0, .max_batch = 8});
  const auto blocker = make_test_problem(30, 7);
  const auto t = make_test_problem();
  auto head = svc.submit(make_request(blocker, 100));
  auto a = svc.submit(make_request(t, 10, 1));
  auto tabu = make_request(t, 10, 1);
  tabu.backend.name = "tabu";
  auto b = svc.submit(std::move(tabu));
  const auto ra = a.wait();
  const auto rb = b.wait();
  EXPECT_EQ(ra->status, core::Status::kCompleted);
  EXPECT_EQ(rb->status, core::Status::kCompleted);
  EXPECT_EQ(ra->batch_size, 1u);
  EXPECT_EQ(rb->batch_size, 1u);
  head.wait();
}

TEST(ServiceModelCache, SameInstanceJobsBuildOnceThenReuse) {
  service::SolveService svc({.workers = 1, .cache_capacity = 0});
  const auto t = make_test_problem();
  constexpr std::uint64_t kJobs = 5;
  for (std::uint64_t seed = 1; seed <= kJobs; ++seed) {
    const auto response = svc.submit(make_request(t, 5, seed)).wait();
    ASSERT_EQ(response->status, core::Status::kCompleted) << response->error;
    EXPECT_EQ(response->batch_size, 1u);
  }
  EXPECT_EQ(svc.stats().model_builds, 1u);
  EXPECT_EQ(svc.stats().model_reuses, kJobs - 1);

  // The backend spec and the penalty shaping are part of the key.
  auto other_backend = make_request(t, 5, 1);
  other_backend.backend.sweeps = 50;
  svc.submit(std::move(other_backend)).wait();
  EXPECT_EQ(svc.stats().model_builds, 2u);
  auto other_penalty = make_request(t, 5, 1);
  other_penalty.options.penalty_alpha = 3.0;
  svc.submit(std::move(other_penalty)).wait();
  EXPECT_EQ(svc.stats().model_builds, 3u);
  EXPECT_EQ(svc.stats().model_reuses, kJobs - 1);
}

TEST(ServiceModelCache, FailedBatchDropsItsModel) {
  const auto t = make_test_problem();
  service::SolveService svc({.workers = 1, .cache_capacity = 0});
  ASSERT_EQ(svc.submit(make_request(t, 5, 1)).wait()->status,
            core::Status::kCompleted);

  // Same batch key, an evaluator that throws mid-solve: the error
  // surfaces, and the model it ran on is not kept.
  auto throwing = make_request(t, 5, 2);
  throwing.options.replicas = 40;  // the fused bit-sliced path
  throwing.evaluator =
      [](std::span<const std::uint8_t>) -> core::SampleVerdict {
    throw std::runtime_error("evaluator exploded");
  };
  const auto failed = svc.submit(std::move(throwing)).wait();
  EXPECT_EQ(failed->status, core::Status::kError);
  EXPECT_EQ(failed->error, "evaluator exploded");
  EXPECT_EQ(svc.stats().model_reuses, 1u);

  // The next clean job on that key rebuilds, and matches a fresh service.
  const auto after = svc.submit(make_request(t, 12, 3)).wait();
  EXPECT_EQ(svc.stats().model_builds, 2u);
  EXPECT_EQ(svc.stats().model_reuses, 1u);
  service::SolveService fresh({.workers = 1, .cache_capacity = 0});
  const auto want = fresh.submit(make_request(t, 12, 3)).wait();
  ASSERT_EQ(after->status, core::Status::kCompleted);
  EXPECT_EQ(after->fingerprint, want->fingerprint);
  EXPECT_EQ(after->result->best_cost, want->result->best_cost);
  EXPECT_EQ(after->result->best_config, want->result->best_config);
  EXPECT_EQ(after->result->feasible_count, want->result->feasible_count);
  EXPECT_EQ(after->result->total_sweeps, want->result->total_sweeps);
  EXPECT_EQ(after->result->feasible_cost_stats.mean(),
            want->result->feasible_cost_stats.mean());
}

}  // namespace
}  // namespace saim
