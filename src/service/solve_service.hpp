// SolveService — in-process asynchronous SAIM solve service.
//
// The ROADMAP's serving story starts here: instead of blocking on
// SaimSolver::solve, callers submit() SolveRequests and get back a
// JobHandle future. The service owns
//   * a persistent util::ThreadPool of solver workers,
//   * a JobQueue with strict priority bands (FIFO within a band),
//   * a content-keyed LRU ResultCache of completed results, and
//   * per worker, a small LRU of built models keyed by the job's model
//     key (problem fingerprint + backend spec + penalty shaping): each
//     holds a LagrangianModel and a backend bound to it. A worker runs
//     exactly the job it pops, stepping one core::DualAscent to
//     completion on that job's entry (built and bound on a miss). Lambda
//     enters the landscape linearly, so the couplings and the bound
//     adjacency never change, and every DualAscent step re-applies its
//     own lambda before it runs — a later job on the same key reuses both
//     exactly.
//     A job that ends in kError evicts its entry.
//
// Requests share problem instances by shared_ptr (the shared-handle idiom:
// many jobs over one instance, no copies), carry a priority, an optional
// deadline, and a replica count, and are identified by a canonical 64-bit
// fingerprint of (problem contents, backend spec, SaimOptions incl. seed).
// A request whose twin already finished is served from the cache (the
// *same* SolveResult object, bit-identical by construction). Every other
// submit is its own job with its own handle: twins in flight at the same
// time each compute, and their seeds make the results equal.
//
// Cancellation is cooperative end to end: JobHandle::cancel() (or an
// expired deadline, or dropping the handle of an unfinished job) trips
// the job's StopToken, which SaimSolver polls per outer iteration and the
// p-bit anneal per sweep chunk, so the partial result comes back with
// Status::kCancelled / kDeadline within one inner run. shutdown() drains
// queued-but-unstarted jobs as kCancelled, lets running jobs finish, and
// joins the workers; the destructor does the same.
//
// Completion is pushed, not polled: JobHandle::on_ready registers a hook
// that finish() fires on the worker right after it publishes the response
// (at once when the job already finished, e.g. a cache hit). The serving
// layer's sessions use it to wake their reactor.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/result.hpp"
#include "core/saim_solver.hpp"
#include "obs/metrics.hpp"
#include "problems/constrained_problem.hpp"
#include "service/backend_factory.hpp"
#include "service/job_queue.hpp"
#include "service/result_cache.hpp"
#include "util/mutex.hpp"
#include "util/parallel.hpp"
#include "util/small_lru.hpp"
#include "util/stop_token.hpp"
#include "util/thread_annotations.hpp"

namespace saim::service {

struct ServiceOptions {
  /// Solver worker threads; 0 picks hardware_threads().
  std::size_t workers = 0;
  /// ResultCache entries; 0 disables caching entirely.
  std::size_t cache_capacity = 256;
  /// Thread cap for a job's own replica batches (SaimOptions::replicas).
  /// Defaults to 1: with several workers running whole jobs in parallel,
  /// per-job fan-out would only oversubscribe.
  std::size_t backend_batch_threads = 1;
};

struct SolveRequest {
  /// Shared instance handle; many requests may point at one problem.
  std::shared_ptr<const problems::ConstrainedProblem> problem;
  /// Judges samples against the raw instance (empty = the solver's
  /// normalized-equality fallback). NOT part of the fingerprint: it must
  /// be a pure function determined by `problem`'s originating instance.
  core::SampleEvaluator evaluator;
  BackendSpec backend;
  core::SaimOptions options;  ///< includes seed and replica count
  Priority priority = Priority::kNormal;
  /// Wall-clock budget from submission; zero means none.
  std::chrono::milliseconds timeout{0};
  bool use_cache = true;
  /// Echo-through label (job id / instance name); not fingerprinted.
  std::string tag;
  /// Echo per-stage timing on the result line ("timing" object, see
  /// docs/PROTOCOL.md). Pure observation — NOT fingerprinted, so traced
  /// and untraced twins share cache entries.
  bool trace = false;
};

/// Per-job stage timing (milliseconds), measured along accept ->
/// queue-pop -> model lookup or build/bind -> solve-start -> solve-end ->
/// response. All zero for jobs served from the cache (nothing ran) and
/// for jobs cancelled before a worker claimed them.
struct JobTiming {
  double queue_ms = 0.0;  ///< submit -> claimed by a worker
  /// claim -> solve start: the worker's model lookup, or the
  /// LagrangianModel build and backend bind on a miss
  double setup_ms = 0.0;
  double solve_ms = 0.0;  ///< solve start -> this job's completion
  double total_ms = 0.0;  ///< submit -> response ready
};

struct SolveResponse {
  std::shared_ptr<const core::SolveResult> result;
  core::Status status = core::Status::kCompleted;  ///< == result->status
  bool cache_hit = false;
  double wall_ms = 0.0;  ///< solve time; 0 for cache hits
  std::uint64_t fingerprint = 0;
  std::string tag;
  std::string error;  ///< non-empty iff status == kError
  /// Stage latencies for this job (see JobTiming). Always populated;
  /// echoed on the wire only when the request set `trace`.
  JobTiming timing;
  /// When the response became ready (steady clock) — lets the emitter
  /// measure completion-to-emission delay without re-deriving submit
  /// time. Default-constructed (epoch) only for responses built outside
  /// the service.
  std::chrono::steady_clock::time_point finished_at{};
};

namespace detail {
struct JobState;
struct BoundModel;
/// One worker's built models by model key (solve_service.cpp).
using ModelCache = util::SmallLru<std::uint64_t, BoundModel>;
}

/// Future-like handle to a submitted job, the only one that job has.
/// Move-only: dropping the handle of an unfinished job abandons the job,
/// which cancels itself (keep the handle alive to warm the result cache).
class JobHandle {
 public:
  JobHandle() = default;
  ~JobHandle();
  JobHandle(JobHandle&& other) noexcept = default;
  JobHandle& operator=(JobHandle&& other) noexcept;
  JobHandle(const JobHandle&) = delete;
  JobHandle& operator=(const JobHandle&) = delete;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// Blocks until the job finishes (completed, stopped, or failed).
  /// Returns nullptr only on an invalid (default-constructed) handle, as
  /// do wait_for() and try_get().
  std::shared_ptr<const SolveResponse> wait() const;

  /// Blocks up to `timeout`; nullptr if still running.
  std::shared_ptr<const SolveResponse> wait_for(
      std::chrono::milliseconds timeout) const;

  /// Non-blocking; nullptr while the job is still running.
  [[nodiscard]] std::shared_ptr<const SolveResponse> try_get() const;

  /// Registers `hook` to run once when the job finishes: on the thread
  /// that finishes it, under the job's lock, right after the response is
  /// published (so a thread the hook wakes finds it via try_get()) — or
  /// at once, on this thread, when the job has already finished (a cache
  /// hit). One hook per job; a second call replaces the first. Moves
  /// carry the registration, and release (destruction, move-assignment)
  /// clears it under the same lock, so once the handle is gone no call
  /// is running or can start. The hook must be short, must not throw and
  /// must not call into any handle of this job. No-op on an invalid handle.
  void on_ready(std::function<void()> hook);

  /// Requests cooperative cancellation of an unfinished job. Returns true
  /// if this call tripped the stop.
  bool cancel();

  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

 private:
  friend class SolveService;
  explicit JobHandle(std::shared_ptr<detail::JobState> state) noexcept
      : state_(std::move(state)) {}

  /// Clears the on_ready hook, stops the job if it has not finished
  /// (see class comment), and resets.
  void release() noexcept;

  std::shared_ptr<detail::JobState> state_;
};

class SolveService {
 public:
  explicit SolveService(ServiceOptions options = {});
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Enqueues a request (or serves it from cache). Throws
  /// std::invalid_argument on a null problem and std::runtime_error after
  /// shutdown().
  JobHandle submit(SolveRequest request) SAIM_EXCLUDES(accepting_mutex_);

  /// Stops intake, completes queued-but-unstarted jobs as kCancelled,
  /// waits for running jobs to finish, joins the workers. Idempotent.
  void shutdown();

  [[nodiscard]] std::size_t worker_count() const noexcept;

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t executed = 0;   ///< solves actually run on a worker
    std::uint64_t completed = 0;  ///< executed with Status::kCompleted
    /// Completed jobs whose result has no feasible sample
    /// (SolveResult::found_feasible false).
    std::uint64_t never_feasible = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t deadline_expired = 0;
    std::uint64_t errors = 0;
    /// Jobs that built a LagrangianModel and bound a backend, and jobs
    /// that reused a worker's built pair instead.
    std::uint64_t model_builds = 0;
    std::uint64_t model_reuses = 0;
    ResultCache::Stats cache;
  };
  [[nodiscard]] Stats stats() const;

  /// Result-cache entry count right now (stats snapshots for the
  /// {"cmd":"stats"} control line and the metrics endpoint).
  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }

  /// This service's metric registry: the per-stage latency histograms
  /// (saim_job_queue_ms, saim_job_setup_ms, saim_job_solve_ms,
  /// saim_job_total_ms — all pre-registered) plus whatever the serving
  /// layer registers alongside (stream_session's saim_emit_ms). Owned
  /// per service, not process-global, so tests running several services
  /// in one process never cross streams.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return registry_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return registry_;
  }

  /// Canonical fingerprint of (problem contents, backend spec, options):
  /// the cache key. Exposed for tests and tooling.
  [[nodiscard]] static std::uint64_t request_fingerprint(
      const SolveRequest& request);

 private:
  void worker_loop();
  /// Runs a claimed job to completion on the worker's cached model for
  /// its model key (built and bound on a miss), then finishes it.
  void execute(const std::shared_ptr<detail::JobState>& job,
               detail::ModelCache& models);
  /// Stamps the response's timing/finished_at from the job's stage
  /// timestamps, records the latency histograms, then publishes it and
  /// fires the job's on_ready hook.
  void finish(const std::shared_ptr<detail::JobState>& job,
              std::shared_ptr<SolveResponse> response);
  void record_outcome(const std::shared_ptr<detail::JobState>& job,
                      const std::shared_ptr<core::SolveResult>& result);

  /// Memoized problems::fingerprint keyed by instance address: a stream of
  /// requests over one shared handle hashes the (possibly large) problem
  /// content once, not once per submit. A weak_ptr per entry detects
  /// address reuse after the instance dies, so stale memo hits are
  /// impossible.
  std::uint64_t problem_fingerprint(
      const std::shared_ptr<const problems::ConstrainedProblem>& problem)
      SAIM_EXCLUDES(memo_mutex_);

  ServiceOptions options_;
  obs::MetricsRegistry registry_;
  /// Pre-registered hot-path handles (see JobTiming for stage bounds).
  obs::Histogram& hist_queue_ms_;
  obs::Histogram& hist_setup_ms_;
  obs::Histogram& hist_solve_ms_;
  obs::Histogram& hist_total_ms_;
  util::Mutex memo_mutex_;
  std::unordered_map<
      const void*,
      std::pair<std::weak_ptr<const problems::ConstrainedProblem>,
                std::uint64_t>>
      problem_fp_memo_ SAIM_GUARDED_BY(memo_mutex_);
  ResultCache cache_;
  JobQueue<std::shared_ptr<detail::JobState>> queue_;
  util::Mutex accepting_mutex_;
  bool accepting_ SAIM_GUARDED_BY(accepting_mutex_) = true;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> never_feasible_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> model_builds_{0};
  std::atomic<std::uint64_t> model_reuses_{0};

  std::once_flag shutdown_once_;
  util::ThreadPool pool_;  ///< last member: workers die before the queues
};

}  // namespace saim::service
