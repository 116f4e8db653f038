// Supervisor — the self-healing layer over the shard fleet.
//
// PR 4's front door was fail-static: a crashed shard was dropped from
// the ring forever and --shards was fixed at spawn. The Supervisor owns
// the fleet's fork/exec children (service::ProcessChild) and adds the
// management behaviors on top of the same ShardRouter/pump cycle:
//
//   * respawn — a crashed child is re-exec'd with exponential
//     backoff and re-added to the ring (revive_shard: consistent hashing
//     moves exactly its old keyslice back). While survivors exist its
//     unanswered jobs fail over to them first (PR 4 path); when it was
//     the ONLY shard they are held on its pending queue instead of
//     orphaning, and replay into the replacement. A child that stays up
//     `stable_ms` earns its restart budget back; one that crash-loops
//     `max_restarts` times is declared down for good.
//
//   * live resharding — reshard(n) grows or shrinks the fleet to n
//     while jobs are in flight. Grow spawns children into recycled dead
//     slots first, then brand-new slots. Shrink retires the
//     highest-indexed shards: each has its unanswered jobs
//     requeued onto the survivors via the router's failover path
//     (exactly-once: a late result from the retiree and the rerun's
//     result dedupe by routing token, first one wins), and is then sent
//     {"cmd":"shutdown"} — its tail output is pumped until
//     the farewell EOF so nothing it already computed is discarded.
//
//   * health — the ping/5-missed-pongs watchdog from PR 4's tool loop
//     lives here now; an unresponsive shard is terminated and flows into
//     the same death/respawn path.
//
// Single-threaded like the router: the owning loop calls pump()
// repeatedly; every management action advances inside pump. The
// Supervisor owns that thread's one reactor, a net::EventLoop on the
// poll backend (a fleet has a handful of fds, and a caller's --input may
// be a regular file, which epoll rejects). pump() waits there until a
// child has output (or room for queued input), a caller's fd fires
// (saim_shard's stdin/stdout), loop().wakeup() is called, or the
// earliest deadline the fleet already keeps falls due.
//
// With respawn and ping_ms both off it is a plain
// fixed-membership pump — a dead shard stays dead and its unanswered
// jobs fail over to the survivors — which is how the failover tests and
// bench/service_throughput drive it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/event_loop.hpp"
#include "service/process_child.hpp"
#include "service/shard_router.hpp"
#include "util/thread_checker.hpp"

namespace saim::service {

struct SupervisorOptions {
  /// argv to exec one shard (a `saim_serve --stream` invocation).
  std::vector<std::string> local_argv;
  /// Re-exec crashed children. Off = PR 4 fail-static behavior.
  bool respawn = true;
  /// Consecutive crashes before a slot is abandoned (counter resets
  /// after a child survives stable_ms).
  int max_restarts = 5;
  int backoff_initial_ms = 100;
  int backoff_max_ms = 2000;
  int stable_ms = 5000;
  /// Health-probe interval; a shard missing 5 pongs in a row is
  /// terminated (0 disables probing).
  int ping_ms = 1000;
  /// A shard retired by a shrink gets this long to drain its tail and
  /// exit on its own before being terminated (a wedged retiree must not
  /// haunt the fleet until final teardown).
  int retire_grace_ms = 10000;
};

class Supervisor {
 public:
  struct Stats {
    std::uint64_t respawns = 0;        ///< successful re-execs
    std::uint64_t respawn_failures = 0;///< slots abandoned after max_restarts
    std::uint64_t reshards = 0;        ///< reshard() membership changes
    std::uint64_t retired = 0;         ///< shards removed by shrink
    std::uint64_t unresponsive_kills = 0;
  };

  /// The router must outlive the supervisor. Slots are attached (or
  /// grown) explicitly; router slot `s` pairs with child slot `s`.
  Supervisor(ShardRouter& router, SupervisorOptions options);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Spawns a child into router slot `slot` (must be < the router's
  /// shard_slots and not yet attached).
  void attach_local(std::size_t slot);

  /// One cycle: flush windows, wait on loop() (at most `max_wait_ms`,
  /// negative = unbounded, and never past the fleet's next deadline),
  /// route lines, advance deaths / respawns / retirements / health
  /// probes. Returns result lines to emit downstream,
  /// in order.
  std::vector<std::string> pump(int max_wait_ms);

  /// The reactor pump() waits on. A caller's fds registered here end the
  /// wait; their callbacks run inside pump.
  [[nodiscard]] net::EventLoop& loop() noexcept { return loop_; }

  /// Fleet stats: broadcasts a {"cmd":"stats"} probe to every live shard
  /// and registers an aggregation keyed by `reply_id`. Once every probed
  /// shard has answered — or a 2 s deadline passes, whichever is first —
  /// pump() emits one {"id":reply_id,"fleet":{...}} snapshot line
  /// downstream: router totals, supervisor counters, and a per-shard
  /// array with liveness, restart count, queue depth, inflight count,
  /// round-trip latency quantiles and the shard's own service snapshot
  /// (null for shards that did not answer in time).
  void request_fleet_stats(const std::string& reply_id);

  /// Live resharding: grow or shrink the fleet so that `target_locals`
  /// shards serve the ring (clamped to >= 1: an empty ring rejects every
  /// job). Returns the number of shards after the change is applied
  /// (the membership change itself completes over subsequent pumps).
  std::size_t reshard(std::size_t target_locals);

  /// Graceful teardown: {"cmd":"shutdown"} + input EOF to every child,
  /// pump until each exits (bounded), reap — no SIGKILL unless a child
  /// overstays `grace_ms`. Lines harvested during teardown surface via
  /// drain_deferred().
  void shutdown_fleet(int grace_ms = 5000);

  /// Output produced outside pump() (reshard requeues, teardown tails);
  /// pump() also drains this, so only call it after the last pump.
  [[nodiscard]] std::vector<std::string> drain_deferred() {
    return std::exchange(deferred_out_, {});
  }

  /// Live shards wanted (attached or respawning).
  [[nodiscard]] std::size_t desired_locals() const;
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// The child currently serving router slot `s` (nullptr when the slot
  /// is dead/retired). Exposed for tests.
  [[nodiscard]] ProcessChild* endpoint(std::size_t s) const;

 private:
  struct Slot {
    std::unique_ptr<ProcessChild> endpoint;
    bool attached = false;   ///< slot was ever given a child
    bool want = true;        ///< desired fleet member (false once retired)
    bool retiring = false;   ///< removed from ring, draining tail output
    bool respawn_pending = false;
    int restarts = 0;
    std::chrono::steady_clock::time_point respawn_at{};
    std::chrono::steady_clock::time_point spawned_at{};
    std::chrono::steady_clock::time_point retire_deadline{};
    int missed_pongs = 0;
    bool ping_outstanding = false;
  };

  /// One outstanding request_fleet_stats aggregation.
  struct StatsProbe {
    std::string reply_id;
    std::set<std::size_t> waiting;               ///< shards not yet answered
    std::map<std::size_t, std::string> replies;  ///< shard -> service JSON
    std::chrono::steady_clock::time_point deadline;
  };

  void ensure_slot(std::size_t slot);
  /// Handles one observed child death; appends orphan lines to out.
  void on_death(std::size_t slot, std::vector<std::string>* out);
  /// Spawns the replacement for a due slot; true on success.
  bool try_respawn(std::size_t slot, std::vector<std::string>* out);
  void send_health_pings();
  /// Registers on loop_ each child's read fd until EOF and its write fd
  /// while bytes are queued. Keyed by the fds recorded at the last call,
  /// so one a retired or dead child already closed is dropped without
  /// asking the child.
  void watch_endpoints();
  /// `max_wait_ms` clamped to the earliest deadline the fleet keeps: a
  /// respawn backoff, a retiree's grace, a stats probe or the next ping.
  [[nodiscard]] int wait_ms(int max_wait_ms) const;
  /// Emits every complete (or expired) fleet-stats aggregation.
  void advance_stats_probes(std::vector<std::string>* out);
  [[nodiscard]] std::string fleet_stats_line(const StatsProbe& probe) const;

  /// Same contract as ShardRouter: one loop owns this object; entry
  /// points abort when entered from a second thread.
  util::ThreadChecker thread_checker_{"Supervisor"};

  ShardRouter& router_;
  SupervisorOptions options_;
  net::EventLoop loop_{/*force_poll=*/true};
  /// fd -> interest registered by watch_endpoints().
  std::map<int, std::uint32_t> watched_;
  std::vector<Slot> slots_;
  std::vector<std::string> deferred_out_;
  std::vector<StatsProbe> stats_probes_;
  std::chrono::steady_clock::time_point last_ping_;
  std::uint64_t probe_counter_ = 0;
  Stats stats_;
};

}  // namespace saim::service
