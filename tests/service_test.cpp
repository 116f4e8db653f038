#include "service/solve_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/penalty_method.hpp"
#include "problems/qkp.hpp"
#include "service/backend_factory.hpp"

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

TEST(SolveService, SolvesOneJobEndToEnd) {
  service::SolveService svc({.workers = 2, .cache_capacity = 8});
  const auto t = make_test_problem();
  auto handle = svc.submit(make_request(t));
  const auto response = handle.wait();
  ASSERT_NE(response, nullptr);
  EXPECT_EQ(response->status, core::Status::kCompleted);
  EXPECT_FALSE(response->cache_hit);
  EXPECT_EQ(response->result->total_runs, 20u);
  EXPECT_TRUE(response->result->found_feasible);
}

/// Every SolveResult field, compared exactly.
void expect_same_result(const core::SolveResult& got,
                        const core::SolveResult& want,
                        const std::string& label) {
  EXPECT_EQ(got.status, want.status) << label;
  EXPECT_EQ(got.found_feasible, want.found_feasible) << label;
  EXPECT_EQ(got.best_x, want.best_x) << label;
  EXPECT_EQ(got.best_cost, want.best_cost) << label;
  EXPECT_EQ(got.total_runs, want.total_runs) << label;
  EXPECT_EQ(got.total_sweeps, want.total_sweeps) << label;
  EXPECT_EQ(got.feasible_count, want.feasible_count) << label;
  EXPECT_EQ(got.feasible_cost_stats.count(), want.feasible_cost_stats.count())
      << label;
  EXPECT_EQ(got.feasible_cost_stats.mean(), want.feasible_cost_stats.mean())
      << label;
  EXPECT_EQ(got.feasible_cost_stats.variance(),
            want.feasible_cost_stats.variance())
      << label;
  EXPECT_EQ(got.feasible_cost_stats.min(), want.feasible_cost_stats.min())
      << label;
  EXPECT_EQ(got.feasible_cost_stats.max(), want.feasible_cost_stats.max())
      << label;
  EXPECT_EQ(got.feasible_costs, want.feasible_costs) << label;
  ASSERT_EQ(got.history.size(), want.history.size()) << label;
  for (std::size_t k = 0; k < got.history.size(); ++k) {
    const auto& g = got.history[k];
    const auto& w = want.history[k];
    EXPECT_EQ(g.iteration, w.iteration) << label << " iteration " << k;
    EXPECT_EQ(g.sample_cost, w.sample_cost) << label << " iteration " << k;
    EXPECT_EQ(g.feasible, w.feasible) << label << " iteration " << k;
    EXPECT_EQ(g.lagrangian_energy, w.lagrangian_energy)
        << label << " iteration " << k;
    EXPECT_EQ(g.max_violation, w.max_violation)
        << label << " iteration " << k;
    EXPECT_EQ(g.lambda, w.lambda) << label << " iteration " << k;
  }
}

TEST(SolveService, MatchesDirectSolverBitForBit) {
  // The service must be a pure scheduling layer: same problem, options and
  // seed give exactly the blocking-call result — through run (1 replica)
  // and run_batch (4 and 40 replicas). One worker, so every job after the
  // first runs on the model and bound backend an earlier job left behind,
  // multipliers included.
  const auto t = make_test_problem();
  service::SolveService svc({.workers = 1, .cache_capacity = 0});
  const struct {
    std::size_t replicas;
    std::uint64_t seed;
  } cases[] = {{1, 1}, {4, 1}, {40, 1}, {1, 2}};
  for (const auto& c : cases) {
    auto request = make_request(t, 20, c.seed);
    request.options.replicas = c.replicas;
    request.options.record_history = true;
    request.options.collect_feasible_costs = true;
    const std::string label = "replicas " + std::to_string(c.replicas) +
                              " seed " + std::to_string(c.seed);

    auto backend = service::make_backend(request.backend);
    core::SaimSolver solver(*t.problem, *backend, request.options);
    const auto direct = solver.solve(core::make_qkp_evaluator(*t.instance));

    const auto via_service = svc.submit(std::move(request)).wait();
    ASSERT_EQ(via_service->status, core::Status::kCompleted)
        << label << ": " << via_service->error;
    expect_same_result(*via_service->result, direct, label);
  }
  EXPECT_EQ(svc.stats().model_builds, 1u);
  EXPECT_EQ(svc.stats().model_reuses, 3u);
}

TEST(SolveService, CacheHitReturnsIdenticalResultWithoutRecompute) {
  service::SolveService svc({.workers = 2, .cache_capacity = 8});
  const auto t = make_test_problem();

  const auto first = svc.submit(make_request(t)).wait();
  ASSERT_EQ(first->status, core::Status::kCompleted);

  const auto second = svc.submit(make_request(t)).wait();
  EXPECT_TRUE(second->cache_hit);
  // Same SolveResult *object*: bit-identical by construction, provably no
  // recompute.
  EXPECT_EQ(second->result.get(), first->result.get());

  const auto stats = svc.stats();
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_GT(stats.cache.hit_rate(), 0.0);
}

TEST(SolveService, DifferentSeedsMissTheCache) {
  service::SolveService svc({.workers = 2, .cache_capacity = 8});
  const auto t = make_test_problem();
  const auto a = svc.submit(make_request(t, 20, 1)).wait();
  const auto b = svc.submit(make_request(t, 20, 2)).wait();
  EXPECT_FALSE(b->cache_hit);
  EXPECT_NE(a->fingerprint, b->fingerprint);
  EXPECT_EQ(svc.stats().executed, 2u);
}

TEST(SolveService, ContentKeyedCacheHitsAcrossRebuiltProblems) {
  // A twin problem object built independently from the same instance must
  // hit: the cache is keyed by content, not pointer.
  service::SolveService svc({.workers = 2, .cache_capacity = 8});
  const auto a = make_test_problem();
  const auto b = make_test_problem();
  ASSERT_NE(a.problem.get(), b.problem.get());
  const auto first = svc.submit(make_request(a)).wait();
  const auto second = svc.submit(make_request(b)).wait();
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->result.get(), first->result.get());
}

TEST(SolveService, CancelReturnsPartialResultWithCancelledStatus) {
  service::SolveService svc({.workers = 1});
  const auto t = make_test_problem();
  // Effectively endless job so the cancel lands mid-solve.
  auto handle = svc.submit(make_request(t, 1000000));
  std::this_thread::sleep_for(30ms);
  handle.cancel();
  const auto response = handle.wait();
  EXPECT_EQ(response->status, core::Status::kCancelled);
  EXPECT_LT(response->result->total_runs, 1000000u);
  EXPECT_EQ(svc.stats().cancelled, 1u);
}

TEST(SolveService, DeadlineReturnsPartialResultWithDeadlineStatus) {
  service::SolveService svc({.workers = 1});
  const auto t = make_test_problem();
  auto request = make_request(t, 1000000);
  request.timeout = 50ms;
  auto handle = svc.submit(std::move(request));
  const auto response = handle.wait();
  EXPECT_EQ(response->status, core::Status::kDeadline);
  EXPECT_LT(response->result->total_runs, 1000000u);
  EXPECT_EQ(svc.stats().deadline_expired, 1u);
}

TEST(SolveService, NeverFeasibleCountsCompletedJobsWithoutAFeasibleSample) {
  service::SolveService svc({.workers = 2, .cache_capacity = 0});
  const auto t = make_test_problem();
  const core::SampleEvaluator rejects_all =
      [](std::span<const std::uint8_t>) { return core::SampleVerdict{}; };
  std::vector<service::JobHandle> handles;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto request = make_request(t, 20, seed);
    if (seed % 2 == 0) request.evaluator = rejects_all;
    handles.push_back(svc.submit(std::move(request)));
  }
  // A stopped job without a feasible sample is not a completed one.
  auto stopped = make_request(t, 1000000, 7);
  stopped.evaluator = rejects_all;
  stopped.timeout = 20ms;
  EXPECT_EQ(svc.submit(std::move(stopped)).wait()->status,
            core::Status::kDeadline);

  std::uint64_t without_feasible = 0;
  for (auto& handle : handles) {
    const auto response = handle.wait();
    ASSERT_EQ(response->status, core::Status::kCompleted);
    if (!response->result->found_feasible) ++without_feasible;
  }
  EXPECT_EQ(without_feasible, 3u);
  EXPECT_EQ(svc.stats().never_feasible, without_feasible);
  EXPECT_EQ(svc.stats().completed, 6u);
}

TEST(SolveService, StoppedResultsAreNeverCached) {
  service::SolveService svc({.workers = 1, .cache_capacity = 8});
  const auto t = make_test_problem();
  auto request = make_request(t, 1000000);
  request.timeout = 30ms;
  svc.submit(std::move(request)).wait();

  // Identical request without the timeout: must be computed, not served
  // from a poisoned cache entry.
  auto full = make_request(t, 1000000);
  full.timeout = 30ms;
  const auto again = svc.submit(std::move(full)).wait();
  EXPECT_FALSE(again->cache_hit);
}

TEST(SolveService, TwinsInFlightRunIndependently) {
  // Two identical deadline-free requests in flight together are two jobs:
  // each runs its own solve, and the shared seed makes them equal.
  service::SolveService svc({.workers = 2, .cache_capacity = 0});
  const auto t = make_test_problem();
  auto a = svc.submit(make_request(t, 40));
  auto b = svc.submit(make_request(t, 40));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  const auto ra = a.wait();
  const auto rb = b.wait();
  ASSERT_EQ(ra->status, core::Status::kCompleted);
  EXPECT_NE(ra.get(), rb.get());
  EXPECT_NE(ra->result.get(), rb->result.get());
  expect_same_result(*rb->result, *ra->result, "twin");
  EXPECT_EQ(svc.stats().executed, 2u);
}

TEST(SolveService, DroppingTheOnlyHandleCancelsTheJob) {
  // Abandonment: a job nobody can read any more stops itself, so the
  // worker is free for the next job.
  service::SolveService svc({.workers = 1, .cache_capacity = 0});
  const auto t = make_test_problem();
  svc.submit(make_request(t, 1000000));  // handle dropped at once
  const auto next = svc.submit(make_request(t, 20, 2)).wait();
  EXPECT_EQ(next->status, core::Status::kCompleted);
  EXPECT_EQ(svc.stats().cancelled, 1u);
}

TEST(JobHandle, InvalidHandleIsInertEverywhere) {
  service::JobHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_EQ(handle.wait(), nullptr);
  EXPECT_EQ(handle.wait_for(1ms), nullptr);
  EXPECT_EQ(handle.try_get(), nullptr);
  EXPECT_FALSE(handle.cancel());
  EXPECT_EQ(handle.fingerprint(), 0u);
}

// ------------------------------------------------------ completion hooks

TEST(JobHandleHook, CacheHitFiresOnTheCallersThread) {
  service::SolveService svc({.workers = 1, .cache_capacity = 8});
  const auto t = make_test_problem();
  svc.submit(make_request(t)).wait();

  auto hit = svc.submit(make_request(t));
  ASSERT_TRUE(hit.try_get()->cache_hit);
  int calls = 0;
  std::thread::id caller;
  hit.on_ready([&] {
    ++calls;
    caller = std::this_thread::get_id();
  });
  // Fired inside on_ready: no worker ever finishes a cache hit.
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(caller, std::this_thread::get_id());
}

TEST(JobHandleHook, HandleReleasedBeforeTheFinishIsNeverCalled) {
  service::SolveService svc({.workers = 1, .cache_capacity = 8});
  const auto blocker = make_test_problem(30, 7);
  const auto t = make_test_problem();
  auto head = svc.submit(make_request(blocker, 200));
  std::atomic<int> calls{0};
  {
    auto dropped = svc.submit(make_request(t, 50));
    dropped.on_ready([&] { calls.fetch_add(1); });
  }  // the release cancels the queued job, which still finishes
  // One worker, one band: the tail runs after the dropped job has ended.
  EXPECT_EQ(svc.submit(make_request(t, 50, 2)).wait()->status,
            core::Status::kCompleted);
  EXPECT_EQ(svc.stats().cancelled, 1u);
  EXPECT_EQ(calls.load(), 0);
  head.wait();
}

TEST(JobHandleHook, ReleaseRacingTheFinishNeverCallsLate) {
  // Each handle is released at a varying point around its worker's
  // finish(): the hook may run before the release, never after it.
  const auto late = std::make_shared<std::atomic<int>>(0);
  service::SolveService svc({.workers = 2, .cache_capacity = 0});
  const auto t = make_test_problem(20);
  for (int i = 0; i < 200; ++i) {
    const auto released = std::make_shared<std::atomic<bool>>(false);
    auto handle = svc.submit(make_request(t, 1, 1000 + i));
    handle.on_ready([late, released] {
      if (released->load()) late->fetch_add(1);
    });
    std::this_thread::sleep_for(std::chrono::microseconds(10 * (i % 20)));
    handle = service::JobHandle{};
    released->store(true);
  }
  svc.shutdown();  // every job has finished
  EXPECT_EQ(late->load(), 0);
}

TEST(JobHandleHook, MovesCarryTheRegistration) {
  service::SolveService svc({.workers = 1, .cache_capacity = 8});
  const auto blocker = make_test_problem(30, 7);
  const auto t = make_test_problem();
  auto head = svc.submit(make_request(blocker, 200));
  std::atomic<int> moved_to_calls{0};
  std::atomic<int> moved_from_calls{0};
  std::atomic<int> released_calls{0};
  service::JobHandle moved_to;
  {
    auto moved_from = svc.submit(make_request(t, 50));
    moved_from.on_ready([&] { moved_to_calls.fetch_add(1); });
    moved_to = std::move(moved_from);
    // NOLINTNEXTLINE(bugprone-use-after-move): moved-from must be inert
    moved_from.on_ready([&] { moved_from_calls.fetch_add(1); });
  }  // destroying the moved-from handle must neither remove the
     // registration nor cancel the job
  {
    auto first = svc.submit(make_request(t, 50, 2));
    first.on_ready([&] { released_calls.fetch_add(1); });
    service::JobHandle second(std::move(first));
    service::JobHandle third;
    third = std::move(second);
  }  // the last handle the registration moved to is released: it goes
     // too, and the job is cancelled
  // One worker, one band: the tail runs after both jobs above have ended.
  EXPECT_EQ(svc.submit(make_request(t, 50, 3)).wait()->status,
            core::Status::kCompleted);
  EXPECT_EQ(moved_to.wait()->status, core::Status::kCompleted);
  EXPECT_EQ(svc.stats().cancelled, 1u);
  EXPECT_EQ(moved_to_calls.load(), 1);
  EXPECT_EQ(moved_from_calls.load(), 0);
  EXPECT_EQ(released_calls.load(), 0);
  head.wait();
}

TEST(SolveService, PriorityOrdersQueuedJobs) {
  service::SolveService svc({.workers = 1, .cache_capacity = 0});
  const auto t = make_test_problem();
  // Head job occupies the single worker while the queue builds up.
  auto head = svc.submit(make_request(t, 150, 99));

  std::vector<service::JobHandle> handles;
  auto low = make_request(t, 10, 1);
  low.priority = service::Priority::kLow;
  auto normal = make_request(t, 10, 2);
  auto high = make_request(t, 10, 3);
  high.priority = service::Priority::kHigh;
  handles.push_back(svc.submit(std::move(low)));
  handles.push_back(svc.submit(std::move(normal)));
  handles.push_back(svc.submit(std::move(high)));

  for (auto& h : handles) h.wait();
  head.wait();
  // All completed; ordering itself is covered by the JobQueue unit tests
  // (observing cross-thread completion order here would be flaky).
  for (auto& h : handles) {
    EXPECT_EQ(h.try_get()->status, core::Status::kCompleted);
  }
}

TEST(SolveService, ShutdownCancelsQueuedJobsAndUnblocksWaiters) {
  auto svc = std::make_unique<service::SolveService>(
      service::ServiceOptions{.workers = 1, .cache_capacity = 0});
  const auto t = make_test_problem();

  // One running job + several queued behind it. The running one is long
  // enough that the queued jobs are still queued when shutdown lands; the
  // sleep gives the (possibly not-yet-scheduled) worker time to dequeue it
  // so it is genuinely running, not still queued.
  auto running = svc->submit(make_request(t, 5000, 50));
  std::this_thread::sleep_for(50ms);
  std::vector<service::JobHandle> queued;
  for (int j = 0; j < 4; ++j) {
    queued.push_back(svc->submit(make_request(t, 50, 100 + j)));
  }

  svc->shutdown();

  // Queued-but-unstarted jobs fail fast as kCancelled...
  for (auto& h : queued) {
    const auto response = h.wait();
    EXPECT_EQ(response->status, core::Status::kCancelled);
    EXPECT_EQ(response->result->total_runs, 0u);
  }
  // ...while the running job finished cooperatively (completed: shutdown
  // does not cancel in-flight work, it only stops feeding it).
  const auto head = running.wait();
  EXPECT_EQ(head->status, core::Status::kCompleted);

  EXPECT_THROW(svc->submit(make_request(t)), std::runtime_error);
  svc.reset();  // double-shutdown via destructor must be safe
}

TEST(SolveService, UnknownBackendSurfacesAsError) {
  service::SolveService svc({.workers = 1});
  const auto t = make_test_problem();
  auto request = make_request(t);
  request.backend.name = "quantum-toaster";
  const auto response = svc.submit(std::move(request)).wait();
  EXPECT_EQ(response->status, core::Status::kError);
  EXPECT_NE(response->error.find("quantum-toaster"), std::string::npos);
  EXPECT_EQ(svc.stats().errors, 1u);
}

TEST(SolveService, ZeroIterationsFailsTheJobNotTheModelKey) {
  service::SolveService svc({.workers = 1});
  const auto t = make_test_problem();
  const auto failed = svc.submit(make_request(t, /*iterations=*/0)).wait();
  EXPECT_EQ(failed->status, core::Status::kError);
  EXPECT_EQ(failed->error, "SaimSolver: iterations must be positive");

  // Same problem and backend, so the same model key: the next job solves.
  const auto next = svc.submit(make_request(t)).wait();
  EXPECT_EQ(next->status, core::Status::kCompleted);
  EXPECT_EQ(next->result->total_runs, 20u);
  EXPECT_EQ(svc.stats().errors, 1u);
  EXPECT_EQ(svc.stats().model_builds, 2u);  // the failed job dropped its own
}

TEST(SolveService, NullProblemIsRejected) {
  service::SolveService svc({.workers = 1});
  EXPECT_THROW(svc.submit(service::SolveRequest{}), std::invalid_argument);
}

TEST(SolveService, RunsEveryKnownBackend) {
  service::SolveService svc({.workers = 2, .cache_capacity = 0});
  const auto t = make_test_problem(20);
  std::vector<service::JobHandle> handles;
  for (const auto& name : service::known_backends()) {
    auto request = make_request(t, 5);
    request.backend.name = name;
    request.backend.sweeps = 50;
    handles.push_back(svc.submit(std::move(request)));
  }
  for (auto& h : handles) {
    const auto response = h.wait();
    EXPECT_EQ(response->status, core::Status::kCompleted) << response->error;
  }
}

}  // namespace
}  // namespace saim
