#include "service/solve_service.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <functional>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "lagrange/lagrangian_model.hpp"
#include "problems/fingerprint.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace saim::service {

namespace detail {

struct JobState {
  std::uint64_t fingerprint = 0;
  /// Model key: problem fingerprint + backend spec + penalty shaping.
  /// Jobs sharing it can run on one model + one bound backend; seeds,
  /// iteration budgets, deadlines etc. stay per job.
  std::uint64_t model_key = 0;
  SolveRequest request;
  util::StopSource stop;

  /// Stage timestamps for JobTiming. submitted_at is set under the
  /// submit path; claimed_at/solve_started_at are written by the one
  /// worker that claimed the job and read by the same thread in
  /// finish() — no synchronization needed. Epoch (default) = the stage
  /// never happened (e.g. cancelled before a claim).
  std::chrono::steady_clock::time_point submitted_at{};
  std::chrono::steady_clock::time_point claimed_at{};
  std::chrono::steady_clock::time_point solve_started_at{};

  util::Mutex mutex;
  std::condition_variable cv;
  /// Set exactly once (finish()), then read-only behind the lock.
  std::shared_ptr<const SolveResponse> response SAIM_GUARDED_BY(mutex);

  /// The handle's JobHandle::on_ready hook. finish() fires and clears it
  /// under `mutex`, the same lock the handle's release takes to clear it
  /// — a released handle's hook never runs.
  std::function<void()> hook SAIM_GUARDED_BY(mutex);
};

/// A LagrangianModel and the backend bound to it, kept by a worker for
/// one model key.
struct BoundModel {
  /// Keeps the instance alive: the model points into it.
  std::shared_ptr<const problems::ConstrainedProblem> problem;
  /// Heap-held so the bound IsingModel keeps its address as entries move.
  std::unique_ptr<lagrange::LagrangianModel> model;
  std::unique_ptr<anneal::IsingSolverBackend> backend;
};

}  // namespace detail

using detail::BoundModel;
using detail::JobState;
using detail::ModelCache;

namespace {

/// Built models each worker keeps. Twice the instances one fleet shard
/// serves at most (3 of 4 hot ones), so a second backend spec or penalty
/// per instance still fits. A QKP-200 entry holds 0.91 MB of heap (0.37 MB
/// model: J and five n-vectors, no QUBO copy; 0.54 MB bound p-bit
/// backend; measured with mallinfo2 on 200-25-1, n = 212), so a full
/// cache stays near 7.3 MB per worker. Past the working set every job
/// builds.
constexpr std::size_t kModelCacheCapacity = 8;

}  // namespace

// ---------------------------------------------------------------- JobHandle

std::shared_ptr<const SolveResponse> JobHandle::wait() const {
  if (!state_) return nullptr;  // invalid handles never block
  util::MutexLock lock(state_->mutex);
  while (state_->response == nullptr) state_->cv.wait(lock.native());
  return state_->response;
}

std::shared_ptr<const SolveResponse> JobHandle::wait_for(
    std::chrono::milliseconds timeout) const {
  if (!state_) return nullptr;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  util::MutexLock lock(state_->mutex);
  while (state_->response == nullptr) {
    if (state_->cv.wait_until(lock.native(), deadline) ==
        std::cv_status::timeout) {
      break;
    }
  }
  return state_->response;
}

std::shared_ptr<const SolveResponse> JobHandle::try_get() const {
  if (!state_) return nullptr;
  util::MutexLock lock(state_->mutex);
  return state_->response;
}

void JobHandle::on_ready(std::function<void()> hook) {
  if (!state_) return;
  {
    util::MutexLock lock(state_->mutex);
    if (state_->response == nullptr) {
      state_->hook = std::move(hook);
      return;
    }
  }
  hook();  // already finished: nobody else will call it
}

bool JobHandle::cancel() {
  if (!state_) return false;
  util::MutexLock lock(state_->mutex);
  if (state_->response != nullptr || state_->stop.stop_requested()) {
    return false;  // already done, or already cancelled
  }
  state_->stop.request_stop();
  return true;
}

void JobHandle::release() noexcept {
  if (!state_) return;
  {
    util::MutexLock lock(state_->mutex);
    state_->hook = nullptr;
    // The job's one handle is gone, so nobody can read its result: an
    // unfinished job is abandoned and stops itself.
    if (state_->response == nullptr) state_->stop.request_stop();
  }
  state_.reset();
}

JobHandle::~JobHandle() { release(); }

JobHandle& JobHandle::operator=(JobHandle&& other) noexcept {
  if (this != &other) {
    release();
    state_ = std::move(other.state_);
  }
  return *this;
}

std::uint64_t JobHandle::fingerprint() const noexcept {
  return state_ ? state_->fingerprint : 0;
}

// ------------------------------------------------------------ SolveService

SolveService::SolveService(ServiceOptions options)
    : options_(options),
      hist_queue_ms_(registry_.histogram(
          "saim_job_queue_ms", "submit to worker claim, milliseconds")),
      hist_setup_ms_(registry_.histogram(
          "saim_job_setup_ms",
          "worker claim to solve start (model lookup, or build and bind "
          "on a miss), ms")),
      hist_solve_ms_(registry_.histogram(
          "saim_job_solve_ms", "solve start to job completion, ms")),
      hist_total_ms_(registry_.histogram(
          "saim_job_total_ms", "submit to response ready, milliseconds")),
      cache_(options.cache_capacity),
      pool_(options.workers == 0 ? util::hardware_threads()
                                 : options.workers) {
  for (std::size_t w = 0; w < pool_.thread_count(); ++w) {
    pool_.submit([this] { worker_loop(); });
  }
}

SolveService::~SolveService() { shutdown(); }

std::size_t SolveService::worker_count() const noexcept {
  return pool_.thread_count();
}

namespace {

/// Extends a problem content hash with the solve parameters.
std::uint64_t request_fingerprint_with(std::uint64_t problem_fp,
                                       const SolveRequest& request) {
  problems::Fingerprint fp;
  fp.mix(problem_fp);

  fp.mix(request.backend.name);
  fp.mix(static_cast<std::uint64_t>(request.backend.sweeps));
  fp.mix(request.backend.beta_max);

  const core::SaimOptions& o = request.options;
  fp.mix(static_cast<std::uint64_t>(o.iterations));
  fp.mix(o.eta);
  fp.mix(o.penalty_alpha);
  fp.mix(o.penalty);
  fp.mix(o.seed);
  fp.mix(static_cast<std::uint64_t>(o.replicas));
  fp.mix(static_cast<std::uint64_t>(o.record_history));
  fp.mix(static_cast<std::uint64_t>(o.collect_feasible_costs));
  return fp.digest();
}

/// Everything that shapes a worker's cached model/backend — and nothing
/// that is legitimately per job (seed, eta, iterations, replicas,
/// deadline).
std::uint64_t model_key_with(std::uint64_t problem_fp,
                             const SolveRequest& request) {
  problems::Fingerprint fp;
  fp.mix(problem_fp);
  fp.mix(request.backend.name);
  fp.mix(static_cast<std::uint64_t>(request.backend.sweeps));
  fp.mix(request.backend.beta_max);
  fp.mix(request.options.penalty);
  fp.mix(request.options.penalty_alpha);
  return fp.digest();
}

}  // namespace

std::uint64_t SolveService::request_fingerprint(const SolveRequest& request) {
  if (!request.problem) {
    throw std::invalid_argument("request_fingerprint: null problem");
  }
  return request_fingerprint_with(problems::fingerprint(*request.problem),
                                  request);
}

std::uint64_t SolveService::problem_fingerprint(
    const std::shared_ptr<const problems::ConstrainedProblem>& problem) {
  const void* key = problem.get();
  {
    util::MutexLock lock(memo_mutex_);
    const auto it = problem_fp_memo_.find(key);
    if (it != problem_fp_memo_.end()) {
      // The memo is only valid while the original object is alive — an
      // expired weak_ptr means this address was freed and possibly reused
      // by a different problem.
      if (it->second.first.lock() == problem) return it->second.second;
      problem_fp_memo_.erase(it);
    }
  }
  const std::uint64_t fp = problems::fingerprint(*problem);
  constexpr std::size_t kMemoCapacity = 1024;
  util::MutexLock lock(memo_mutex_);
  if (problem_fp_memo_.size() >= kMemoCapacity) {
    // Prune dead handles first; if every entry is still live (a huge
    // all-distinct job stream), drop an arbitrary one — the memo is a
    // cache, staying bounded beats keeping any particular entry.
    for (auto it = problem_fp_memo_.begin(); it != problem_fp_memo_.end();) {
      it = it->second.first.expired() ? problem_fp_memo_.erase(it)
                                      : std::next(it);
    }
    if (problem_fp_memo_.size() >= kMemoCapacity) {
      problem_fp_memo_.erase(problem_fp_memo_.begin());
    }
  }
  problem_fp_memo_.emplace(key, std::make_pair(problem, fp));
  return fp;
}

JobHandle SolveService::submit(SolveRequest request) {
  if (!request.problem) {
    throw std::invalid_argument("SolveService::submit: null problem");
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t problem_fp = problem_fingerprint(request.problem);
  const std::uint64_t fp = request_fingerprint_with(problem_fp, request);

  auto job = std::make_shared<JobState>();
  job->fingerprint = fp;
  job->model_key = model_key_with(problem_fp, request);
  job->submitted_at = std::chrono::steady_clock::now();

  {
    util::MutexLock lock(accepting_mutex_);
    if (!accepting_) {
      throw std::runtime_error("SolveService::submit after shutdown");
    }
  }

  if (request.use_cache) {
    // Completed twin: serve the very SolveResult object computed the
    // first time — bit-identical by construction, no recompute.
    if (auto cached = cache_.get(fp)) {
      auto response = std::make_shared<SolveResponse>();
      response->result = std::move(cached);
      response->status = response->result->status;
      response->cache_hit = true;
      response->fingerprint = fp;
      response->tag = std::move(request.tag);
      // A hit runs nothing: every stage is zero except the (tiny)
      // submit-to-ready total, which still feeds the latency picture.
      response->finished_at = std::chrono::steady_clock::now();
      response->timing.total_ms =
          std::chrono::duration<double, std::milli>(response->finished_at -
                                                    job->submitted_at)
              .count();
      hist_total_ms_.observe(response->timing.total_ms);
      {
        // `job` is still thread-local here, but response is guarded
        // state: take the (uncontended) lock so the store is ordered
        // for any thread the returned handle travels to.
        util::MutexLock job_lock(job->mutex);
        job->response = std::move(response);
      }
      return JobHandle(std::move(job));
    }
  }

  job->request = std::move(request);
  if (job->request.timeout.count() > 0) {
    // Clamp before the ms -> steady_clock-tick (ns) conversion, which
    // overflows int64 past ~292 years; a decade is indistinguishable
    // from "no deadline" for a solve job.
    constexpr std::chrono::milliseconds kMaxTimeout =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::hours(24 * 3650));
    job->stop = util::StopSource::after(
        std::min(job->request.timeout, kMaxTimeout));
  }

  if (!queue_.push(job, job->request.priority)) {
    // Shutdown raced us between the lock and the push: fail the job the
    // same way drained queue entries fail (stat included).
    auto response = std::make_shared<SolveResponse>();
    auto result = std::make_shared<core::SolveResult>();
    result->status = core::Status::kCancelled;
    response->result = std::move(result);
    response->status = core::Status::kCancelled;
    response->fingerprint = fp;
    response->tag = job->request.tag;
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    finish(job, std::move(response));
  }
  return JobHandle(std::move(job));
}

void SolveService::worker_loop() {
  ModelCache models(kModelCacheCapacity);
  while (auto popped = queue_.pop()) {
    const std::shared_ptr<JobState> job = std::move(*popped);
    job->claimed_at = std::chrono::steady_clock::now();
    execute(job, models);
  }
}

void SolveService::record_outcome(
    const std::shared_ptr<JobState>& job,
    const std::shared_ptr<core::SolveResult>& result) {
  executed_.fetch_add(1, std::memory_order_relaxed);
  switch (result->status) {
    case core::Status::kCompleted:
      completed_.fetch_add(1, std::memory_order_relaxed);
      if (!result->found_feasible) {
        never_feasible_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    case core::Status::kCancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      break;
    case core::Status::kDeadline:
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      break;
    case core::Status::kError:
      errors_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (result->status != core::Status::kCompleted) return;
  // Only full solves are worth replaying; partial (stopped) results depend
  // on wall-clock timing and must never be served to a future request.
  if (job->request.use_cache) cache_.put(job->fingerprint, result);
}

void SolveService::execute(const std::shared_ptr<JobState>& job,
                           ModelCache& models) {
  util::WallTimer timer;
  const SolveRequest& request = job->request;
  auto response = std::make_shared<SolveResponse>();
  response->fingerprint = job->fingerprint;
  response->tag = request.tag;
  auto result = std::make_shared<core::SolveResult>();

  // Everything user-supplied on this path (the evaluator copy, the
  // evaluator itself, the backend spec) may throw; letting it escape the
  // worker thread would terminate the whole service. A failure keeps the
  // partial result gathered so far and reports kError.
  std::optional<core::DualAscent> ascent;
  const auto fail = [&](const char* what) {
    if (ascent) *result = std::move(ascent->result());
    result->status = core::Status::kError;
    response->error = what;
  };
  try {
    BoundModel* bound = models.find(job->model_key);
    if (bound != nullptr) {
      model_reuses_.fetch_add(1, std::memory_order_relaxed);
    } else {
      BoundModel built;
      built.problem = request.problem;
      built.backend = make_backend(request.backend);
      built.backend->set_batch_threads(options_.backend_batch_threads);
      built.model = std::make_unique<lagrange::LagrangianModel>(
          *built.problem,
          core::effective_penalty(*built.problem, request.options));
      built.backend->bind(built.model->ising());
      bound = &models.insert(job->model_key, std::move(built));
      model_builds_.fetch_add(1, std::memory_order_relaxed);
    }
    ascent.emplace(*bound->problem, request.options, request.evaluator,
                   job->stop.token());
    job->solve_started_at = std::chrono::steady_clock::now();
    while (!ascent->step(*bound->model, *bound->backend)) {
    }
    // Back to the idle token: a kept backend must not hold this job's.
    bound->backend->set_stop_token(util::StopToken{});
    *result = std::move(ascent->result());
  } catch (const std::exception& e) {
    fail(e.what());
  } catch (...) {
    fail("unknown exception in solve job");
  }
  // A failure may leave the backend half-run: the next job on this key
  // starts from a fresh build.
  if (result->status == core::Status::kError) models.erase(job->model_key);

  response->wall_ms = timer.milliseconds();
  response->status = result->status;
  record_outcome(job, result);
  response->result = std::move(result);
  finish(job, std::move(response));
}

void SolveService::finish(const std::shared_ptr<JobState>& job,
                          std::shared_ptr<SolveResponse> response) {
  // Stamp the stage timings before the response goes const-visible. Epoch
  // timestamps mean the stage never happened (queued job failed at
  // shutdown, model build threw before the solve) — those stages read 0.
  using float_ms = std::chrono::duration<double, std::milli>;
  constexpr std::chrono::steady_clock::time_point kEpoch{};
  const auto now = std::chrono::steady_clock::now();
  response->finished_at = now;
  if (job->submitted_at != kEpoch) {
    response->timing.total_ms = float_ms(now - job->submitted_at).count();
    hist_total_ms_.observe(response->timing.total_ms);
  }
  if (job->claimed_at != kEpoch) {
    response->timing.queue_ms =
        float_ms(job->claimed_at - job->submitted_at).count();
    hist_queue_ms_.observe(response->timing.queue_ms);
    if (job->solve_started_at != kEpoch) {
      response->timing.setup_ms =
          float_ms(job->solve_started_at - job->claimed_at).count();
      response->timing.solve_ms =
          float_ms(now - job->solve_started_at).count();
      hist_setup_ms_.observe(response->timing.setup_ms);
      hist_solve_ms_.observe(response->timing.solve_ms);
    }
  }
  {
    util::MutexLock lock(job->mutex);
    job->response = std::move(response);
    if (job->hook) {
      job->hook();
      job->hook = nullptr;
    }
  }
  job->cv.notify_all();
}

void SolveService::shutdown() {
  std::call_once(shutdown_once_, [this] {
    {
      util::MutexLock lock(accepting_mutex_);
      accepting_ = false;
    }
    // Fail everything still queued; running jobs finish cooperatively.
    // drain() and pop() each hand a queue entry out once, and every job
    // is queued once, so no drained job is also running.
    for (auto& job : queue_.drain()) {
      job->stop.request_stop();
      auto response = std::make_shared<SolveResponse>();
      auto result = std::make_shared<core::SolveResult>();
      result->status = core::Status::kCancelled;
      response->result = std::move(result);
      response->status = core::Status::kCancelled;
      response->fingerprint = job->fingerprint;
      response->tag = job->request.tag;
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      finish(job, std::move(response));
    }
    queue_.close();
    pool_.shutdown();
  });
}

SolveService::Stats SolveService::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.executed = executed_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.never_feasible = never_feasible_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.model_builds = model_builds_.load(std::memory_order_relaxed);
  s.model_reuses = model_reuses_.load(std::memory_order_relaxed);
  s.cache = cache_.stats();
  return s;
}

}  // namespace saim::service
