// Per-worker model cache, end to end through SolveService: one build per
// model key and reuse after it, and eviction of a failed job's model.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <stdexcept>

#include "core/penalty_method.hpp"
#include "core/saim_solver.hpp"
#include "problems/qkp.hpp"
#include "service/solve_service.hpp"

namespace saim {
namespace {

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

TEST(ServiceModelCache, SameInstanceJobsBuildOnceThenReuse) {
  service::SolveService svc({.workers = 1, .cache_capacity = 0});
  const auto t = make_test_problem();
  constexpr std::uint64_t kJobs = 5;
  for (std::uint64_t seed = 1; seed <= kJobs; ++seed) {
    const auto response = svc.submit(make_request(t, 5, seed)).wait();
    ASSERT_EQ(response->status, core::Status::kCompleted) << response->error;
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

TEST(ServiceModelCache, FailedJobDropsItsModel) {
  const auto t = make_test_problem();
  service::SolveService svc({.workers = 1, .cache_capacity = 0});
  ASSERT_EQ(svc.submit(make_request(t, 5, 1)).wait()->status,
            core::Status::kCompleted);

  // Same model key, an evaluator that throws mid-solve: the error
  // surfaces, and the model it ran on is not kept.
  auto throwing = make_request(t, 5, 2);
  throwing.options.replicas = 40;  // a parallel run_batch
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
  EXPECT_EQ(after->result->best_x, want->result->best_x);
  EXPECT_EQ(after->result->feasible_count, want->result->feasible_count);
  EXPECT_EQ(after->result->total_sweeps, want->result->total_sweeps);
  EXPECT_EQ(after->result->feasible_cost_stats.mean(),
            want->result->feasible_cost_stats.mean());
}

}  // namespace
}  // namespace saim
