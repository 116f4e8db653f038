// SolveService — in-process asynchronous SAIM solve service.
//
// The ROADMAP's serving story starts here: instead of blocking on
// SaimSolver::solve, callers submit() SolveRequests and get back a
// JobHandle future. The service owns
//   * a persistent util::ThreadPool of solver workers,
//   * a JobQueue with strict priority bands (FIFO within a band),
//   * a content-keyed LRU ResultCache of completed results (with the
//     per-problem warm-start pool riding along),
//   * an in-flight table that coalesces duplicate requests onto one
//     computation, and
//   * a same-instance batch scheduler: a worker that pops a job drains its
//     queued batch-key twins (same problem fingerprint, backend spec and
//     penalty shaping, up to ServiceOptions::max_batch) and executes them
//     on ONE model + ONE bound backend via core::solve_batch,
//     demultiplexing per-job results, statuses and deadlines. Every job
//     runs this way; a lone job is a batch of one, and
//   * per worker, a small LRU of built models keyed by that batch key:
//     each holds a LagrangianModel and a backend bound to it. Lambda
//     enters the landscape linearly, so the couplings and the bound CSR
//     never change, and every DualAscent step re-applies its own lambda
//     before it runs — a later batch on the same key reuses both exactly.
//     A batch that ends any member in kError evicts its entry.
//
// Requests share problem instances by shared_ptr (the shared-handle idiom:
// many jobs over one instance, no copies), carry a priority, an optional
// deadline, and a replica count, and are identified by a canonical 64-bit
// fingerprint of (problem contents, backend spec, SaimOptions incl. seed).
// Identical work is never done twice: a finished twin is served from the
// cache (the *same* SolveResult object, bit-identical by construction) and
// a running twin is joined in flight.
//
// Cancellation is cooperative end to end: JobHandle::cancel() (or an
// expired deadline) trips the job's StopToken, which SaimSolver polls per
// outer iteration and the p-bit anneal per sweep chunk, so the partial
// result comes back with Status::kCancelled / kDeadline within one inner
// run. shutdown() drains queued-but-unstarted jobs as kCancelled, lets
// running jobs finish, and joins the workers; the destructor does the same.
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
  /// Same-instance batching: a worker that pops a job also drains up to
  /// max_batch - 1 queued jobs sharing its batch key (problem fingerprint
  /// + backend spec + penalty shaping) and its priority band, and runs
  /// them on ONE model + ONE bound backend via core::solve_batch,
  /// demultiplexing per-job results, statuses and deadlines. Draining is
  /// idle-aware — it never starves an idle worker of queued work, since
  /// parallel solo execution beats lockstep sharing of one thread — and a
  /// deadline-carrying popped job batches nothing extra (lockstep mates
  /// would dilute the compute rate its time budget was sized for; it can
  /// still ride along in a deadline-free job's batch, where it loses no
  /// queue wait). 0 or 1 disables batching.
  std::size_t max_batch = 8;
  /// Problem fingerprints the warm-start pool may track (each keeping the
  /// ResultCache::kWarmSamplesPerProblem best feasible configurations).
  /// 0 disables the pool — warm_start requests then run cold.
  std::size_t warm_pool_capacity = 64;
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
  /// Opt-in cross-job warm start: seed this job's first inner run from the
  /// per-problem pool of best-known feasible samples (and import the
  /// pooled samples as its initial best-so-far). Off by default because a
  /// warm job's result depends on what the pool held when it ran — it is
  /// neither reproducible nor cacheable, so warm jobs bypass the result
  /// cache and in-flight coalescing entirely. The flag IS fingerprinted,
  /// keeping warm and cold twins distinct.
  bool warm_start = false;
  /// Echo-through label (job id / instance name); not fingerprinted.
  std::string tag;
  /// Echo per-stage timing on the result line ("timing" object, see
  /// docs/PROTOCOL.md). Pure observation — NOT fingerprinted, so traced
  /// and untraced twins still coalesce and share cache entries.
  bool trace = false;
};

/// Per-job stage timing (milliseconds), measured along accept ->
/// queue-pop -> batch-form + model lookup or build/bind -> solve-start ->
/// solve-end -> response. All zero for jobs served from the cache
/// (nothing ran) and for jobs cancelled before a worker claimed them.
struct JobTiming {
  double queue_ms = 0.0;  ///< submit -> claimed by a worker
  /// claim -> solve start: batch drain plus the worker's model lookup,
  /// or the LagrangianModel build and backend bind on a miss
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
  /// Members of the same-instance batch this job executed in (1 = solo).
  /// For batch members, wall_ms measures from batch start to THIS member's
  /// completion — members share the worker, so per-member compute time is
  /// not separable.
  std::size_t batch_size = 1;
  /// True when the job was seeded from the warm-start pool (requested
  /// warm_start AND the pool had samples for its problem).
  bool warm_started = false;
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
/// One worker's built models by batch key (solve_service.cpp).
using ModelCache = util::SmallLru<std::uint64_t, BoundModel>;
}

/// Future-like handle to a submitted job. Move-only: each handle holds one
/// cancellation vote on the (possibly shared) underlying computation, and
/// dropping a handle without voting withdraws it from the quorum — when
/// the last handle of an unfinished job is dropped, the job is abandoned
/// and cancels itself (keep the handle alive for fire-and-forget warming).
class JobHandle {
 public:
  JobHandle() = default;
  ~JobHandle();
  JobHandle(JobHandle&& other) noexcept;
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
  /// hit). One hook per handle; a second call replaces the first. Moves
  /// carry the registration, and release (destruction, move-assignment)
  /// removes it under the same lock, so once the handle is gone no call
  /// is running or can start. The hook must be short, must not throw and
  /// must not call into any handle of this job. No-op on an invalid handle.
  void on_ready(std::function<void()> hook);

  /// Requests cooperative cancellation. When several handles share one
  /// coalesced computation, the underlying solve is only stopped once
  /// every handle has cancelled — one impatient caller cannot kill a twin
  /// request's job. Returns true if this call tripped the stop.
  bool cancel();

  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

 private:
  friend class SolveService;
  explicit JobHandle(std::shared_ptr<detail::JobState> state) noexcept
      : state_(std::move(state)) {}

  /// Withdraws this handle's subscription (see class comment) and its
  /// on_ready hook, and resets.
  void release() noexcept;

  std::shared_ptr<detail::JobState> state_;
  bool cancel_voted_ = false;
  std::uint64_t hook_id_ = 0;  ///< this handle's on_ready entry; 0 = none
};

class SolveService {
 public:
  explicit SolveService(ServiceOptions options = {});
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Enqueues a request (or serves it from cache / joins it onto an
  /// in-flight twin). Throws std::invalid_argument on a null problem and
  /// std::runtime_error after shutdown().
  JobHandle submit(SolveRequest request) SAIM_EXCLUDES(inflight_mutex_);

  /// Stops intake, completes queued-but-unstarted jobs as kCancelled,
  /// waits for running jobs to finish, joins the workers. Idempotent.
  void shutdown();

  [[nodiscard]] std::size_t worker_count() const noexcept;

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t executed = 0;   ///< solves actually run on a worker
    std::uint64_t completed = 0;  ///< executed with Status::kCompleted
    std::uint64_t cancelled = 0;
    std::uint64_t deadline_expired = 0;
    std::uint64_t errors = 0;
    std::uint64_t coalesced = 0;  ///< submits joined onto an in-flight twin
    std::uint64_t batches = 0;       ///< batch executions with >= 2 members
    std::uint64_t batched_jobs = 0;  ///< jobs executed as members of those
    std::uint64_t warm_seeded = 0;   ///< jobs seeded from the warm pool
    /// Batches that built a LagrangianModel and bound a backend, and
    /// batches that reused a worker's built pair instead.
    std::uint64_t model_builds = 0;
    std::uint64_t model_reuses = 0;
    ResultCache::Stats cache;
  };
  [[nodiscard]] Stats stats() const;

  /// Result-cache entry count right now (stats snapshots for the
  /// {"cmd":"stats"} control line and the metrics endpoint).
  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }
  [[nodiscard]] std::size_t warm_pool_size() const {
    return cache_.warm_pool_size();
  }

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
  /// the cache/coalescing key. Exposed for tests and tooling.
  [[nodiscard]] static std::uint64_t request_fingerprint(
      const SolveRequest& request);

  /// Snapshot of the warm-start pool (per-problem best feasible configs)
  /// for cross-process handoff: the {"cmd":"export_warm"} control line.
  /// Problem fingerprints are stable across processes, so another
  /// service can import_warm_sample() these verbatim.
  [[nodiscard]] std::vector<ResultCache::WarmSnapshot> export_warm_pool()
      const {
    return cache_.export_warm();
  }

  /// Offers one exported configuration to this service's pool (the
  /// {"cmd":"import_warm"} control line). Samples are re-judged at use —
  /// an import can only seed, never corrupt, a warm job.
  void import_warm_sample(std::uint64_t problem_fp, const ising::Bits& bits,
                          double cost) {
    cache_.put_warm(problem_fp, bits, cost);
  }

 private:
  void worker_loop();
  /// Runs claimed same-batch-key jobs as one core::solve_batch on the
  /// worker's cached model for their key (built and bound on a miss),
  /// finishing each member the moment it completes.
  void execute_batch(
      const std::vector<std::shared_ptr<detail::JobState>>& members,
      detail::ModelCache& models);
  /// Stamps the response's timing/finished_at from the job's stage
  /// timestamps, records the latency histograms, then publishes it and
  /// fires the job's on_ready hooks.
  void finish(const std::shared_ptr<detail::JobState>& job,
              std::shared_ptr<SolveResponse> response)
      SAIM_EXCLUDES(inflight_mutex_);
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
  util::Mutex inflight_mutex_;
  std::unordered_map<std::uint64_t, std::weak_ptr<detail::JobState>> inflight_
      SAIM_GUARDED_BY(inflight_mutex_);
  bool accepting_ SAIM_GUARDED_BY(inflight_mutex_) = true;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_jobs_{0};
  std::atomic<std::uint64_t> warm_seeded_{0};
  std::atomic<std::uint64_t> model_builds_{0};
  std::atomic<std::uint64_t> model_reuses_{0};
  /// Workers currently blocked in queue_.pop(); the batch drain leaves at
  /// least this many queued jobs behind (see ServiceOptions::max_batch).
  std::atomic<std::size_t> idle_workers_{0};

  std::once_flag shutdown_once_;
  util::ThreadPool pool_;  ///< last member: workers die before the queues
};

}  // namespace saim::service
