// ShardRouter — the I/O-free brain of the sharded serving front door.
//
// tools/saim_shard runs N `saim_serve --stream` children (one per shard,
// wrapped in ProcessChild) and pumps this router between them and the
// client stream. The router owns every piece of sharding state:
//
//   * a consistent-hash ring (HashRing) over the shards, keyed by the
//     canonical PROBLEM fingerprint (problems/fingerprint) of each job's
//     instance, with bounded loads (Mirrokni, Thorup and Zadimoghaddam,
//     SODA 2018): a job goes to the first shard clockwise from its key,
//     owner first, whose outstanding count is below
//     max(window, ceil(1.25 * mean outstanding)). A light instance stream
//     never fills its owner's window, so all of its jobs share one
//     shard's ResultCache, coalescer and cached models; a hot one spills
//     its surplus to the next shards instead of queueing behind its
//     owner. Removing a shard only remaps the keys it owned (cache
//     locality survives resharding);
//   * per-shard outstanding-job tables: a pending queue (routed, not yet
//     written) and an in-flight set (written, awaiting a result), with a
//     bounded in-flight window per shard for backpressure — the pump
//     never stuffs more than `window` unanswered jobs into one child, so
//     pipes cannot deadlock;
//   * seq remapping: each child numbers ITS accepted jobs 0..k in its own
//     completion order; the router rewrites that per-shard `seq` into one
//     global completion order across all shards. Lines a child rejected
//     at submission carry no seq (per docs/PROTOCOL.md) and keep none
//     here, so accepted jobs always see the contiguous global range;
//   * failover: when a child dies (on_child_down), its unanswered jobs —
//     pending and in-flight — are placed again by the same bounded-load
//     rule over the live shards and rerun from scratch; jobs are
//     deterministic per seed, so a rerun emits the bit-identical result.
//     Every accepted job produces exactly one output line even across a
//     crash. Only when no shard is left do jobs error out (with a `shard`
//     field naming the casualty);
//   * the control dialect on both sides: upstream {"cmd":"ping"}/"drain"
//     lines are answered by the router itself; pongs from children (the
//     router's own health probes) are consumed via take_pong, never
//     forwarded;
//   * admission control: past a global pending bound, the lowest-priority
//     job is shed with a "delayed"-tagged error instead of queueing
//     unboundedly.
//
// To keep every request byte the shard sees equivalent to what a
// single-process saim_serve would have parsed, the router rewrites only
// the job id (to a unique routing token, restored on the way out) and
// validates lines with the exact same parser (service/job_parser) — a
// router-rejected line carries the error text the shard would have
// produced. Result lines pass through byte-identical except for the id
// and seq fields, so objective values are never re-serialized.
//
// Single-threaded by design: the owning pump drives accept_line /
// take_sendable / on_child_line / on_child_down from one thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hpp"
#include "util/thread_checker.hpp"

namespace saim::service {

/// Consistent-hash ring: every shard owns `vnodes` pseudo-random points
/// on the 64-bit ring; a key belongs to the first point clockwise.
/// Removing a shard redistributes only the keys it owned.
class HashRing {
 public:
  explicit HashRing(std::size_t vnodes = 64);

  void add(std::size_t shard);
  void remove(std::size_t shard);
  [[nodiscard]] bool contains(std::size_t shard) const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// The shard owning `key`. Throws std::runtime_error on an empty ring.
  [[nodiscard]] std::size_t route(std::uint64_t key) const;

  /// Every shard once, in the order a clockwise walk from `key` meets
  /// them: route(key) first. Throws std::runtime_error on an empty ring.
  [[nodiscard]] std::vector<std::size_t> clockwise(std::uint64_t key) const;

 private:
  std::size_t vnodes_;
  std::map<std::uint64_t, std::size_t> ring_;  ///< point -> shard
  std::set<std::size_t> shards_;
};

struct RouterOptions {
  std::size_t shards = 2;
  /// In-flight (written, unanswered) jobs allowed per shard.
  std::size_t window = 32;
  /// Virtual nodes per shard on the hash ring.
  std::size_t vnodes = 64;
  /// Admission control: once this many routed jobs wait for a window
  /// slot, the lowest-priority pending job is shed with a "delayed"-
  /// tagged error instead of growing the backlog. 0 = unbounded.
  std::size_t max_queue_depth = 0;
};

class ShardRouter {
 public:
  struct Stats {
    std::uint64_t accepted = 0;  ///< jobs routed onto the ring
    std::uint64_t rejected = 0;  ///< local error lines (bad input)
    std::uint64_t emitted = 0;   ///< job result/error lines sent downstream
    std::uint64_t requeued = 0;  ///< jobs moved off a dead shard
    std::uint64_t orphaned = 0;  ///< jobs errored: no live shard remained
    std::uint64_t sheds = 0;     ///< jobs shed by admission control
    std::vector<std::uint64_t> routed_per_shard;
    /// Jobs placed on the shard while their ring owner was another live
    /// shard at its load bound (a subset of routed_per_shard).
    std::vector<std::uint64_t> spilled_per_shard;
  };

  explicit ShardRouter(RouterOptions options);

  /// Feeds one input line. `line_no` is the 1-based input line number
  /// (blank lines included) so default job ids match saim_serve's jobN.
  /// Returns lines to emit downstream immediately: a local reject's error
  /// line, a ping's pong, or a drain that was already satisfied.
  std::vector<std::string> accept_line(const std::string& line,
                                       std::size_t line_no);

  /// Request lines to write to `shard` now, bounded by the in-flight
  /// window; the returned jobs are marked in flight.
  std::vector<std::string> take_sendable(std::size_t shard);

  /// Processes one line read from `shard`'s stdout. Returns lines to emit
  /// downstream (the id-restored, seq-remapped job line, plus any drain
  /// acknowledgements it unblocked); empty for consumed control replies.
  std::vector<std::string> on_child_line(std::size_t shard,
                                         const std::string& line);

  /// The shard died: drop it from the ring and place its unanswered
  /// jobs again on the live shards. Returns error lines for jobs that
  /// could not be placed (no shards left), plus unblocked drain acks.
  /// Also the graceful-removal path (live resharding): the departing
  /// shard's process may still answer requeued tokens late — the first
  /// result per token wins, the other copy is dropped, so every job
  /// still emits exactly once.
  std::vector<std::string> on_child_down(std::size_t shard);

  /// Re-adds a dead shard slot to the ring (the Supervisor respawned its
  /// process). Its vnode points are a pure function of the slot index,
  /// so exactly the keyslice it owned before the crash moves back.
  void revive_shard(std::size_t shard);

  /// Appends a brand-new shard slot (live resharding grow); returns its
  /// index. The new shard starts live and on the ring.
  std::size_t add_shard();

  /// Moves `shard`'s written-but-unanswered jobs back to the head of its
  /// pending queue (original accept order): the sole-shard respawn path,
  /// where failing over is impossible and orphaning needless — ring
  /// membership stays intact and the jobs replay into the replacement
  /// process.
  void requeue_inflight(std::size_t shard);

  /// True when a pong arrived from `shard` since the last call (clears).
  bool take_pong(std::size_t shard);

  /// The latest {"service":{...}} stats snapshot `shard` sent in reply to
  /// a Supervisor stats probe, serialized; consumed by the fleet stats
  /// aggregation. Clears on read.
  std::optional<std::string> take_stats_export(std::size_t shard);

  /// Round-trip latency histogram of `shard`'s answered jobs (written to
  /// the child -> result line back, ms). Accumulates across restarts of
  /// the same slot; empty snapshot for an out-of-range index.
  [[nodiscard]] obs::HistogramSnapshot latency_snapshot(
      std::size_t shard) const;

  [[nodiscard]] bool alive(std::size_t shard) const;
  [[nodiscard]] std::size_t live_shards() const { return ring_.shard_count(); }
  /// Total slots ever created (live + dead); endpoints index this range.
  [[nodiscard]] std::size_t shard_slots() const { return alive_.size(); }
  /// The live shard owning problem fingerprint `fp` right now. Throws
  /// std::runtime_error on an empty ring.
  [[nodiscard]] std::size_t owner_of(std::uint64_t fp) const {
    return ring_.route(fp);
  }
  /// Jobs accepted but not yet answered (any shard, any state).
  [[nodiscard]] std::size_t outstanding() const { return jobs_.size(); }
  [[nodiscard]] std::size_t pending(std::size_t shard) const;
  [[nodiscard]] std::size_t inflight(std::size_t shard) const;
  [[nodiscard]] std::size_t total_pending() const;
  /// Nothing left to emit: no outstanding jobs, no pending drains.
  [[nodiscard]] bool idle() const { return jobs_.empty() && drains_.empty(); }
  [[nodiscard]] bool any_error() const { return any_error_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Job {
    std::uint64_t ordinal = 0;   ///< accept order (drain barriers key on it)
    std::string display_id;      ///< original id (or "jobN") for output
    std::string line;            ///< rewritten request line (id = token)
    std::uint64_t fingerprint = 0;  ///< routing key (problem content hash)
    std::size_t shard = 0;
    /// The token sits in inflight_[shard] when true, in pending_[shard]
    /// when false — never in both, never on another shard.
    bool inflight = false;
    /// When the line was handed out for writing (take_sendable); epoch
    /// until then. Feeds the per-shard round-trip latency histogram.
    std::chrono::steady_clock::time_point sent_at{};
    /// Priority band (0 low, 1 normal, 2 high): admission control sheds
    /// lowest first.
    int priority = 1;
  };
  struct Drain {
    std::uint64_t before = 0;  ///< waits for jobs with ordinal < before
    std::size_t remaining = 0;
    std::string id;
  };

  /// One outstanding job finished (emitted or orphaned): advance drains.
  void finished(std::uint64_t ordinal, std::vector<std::string>* out);
  [[nodiscard]] std::string drained_line(const Drain& drain) const;
  /// Bounded-load placement, the one rule for new and failed-over jobs:
  /// queues `token` on the first shard clockwise from `fingerprint`
  /// whose outstanding count is below the load cap (the owner when every
  /// shard is at it) and returns that shard. Throws on an empty ring.
  std::size_t place(const std::string& token, std::uint64_t fingerprint);
  /// Jobs queued or in flight on `shard`.
  [[nodiscard]] std::size_t load(std::size_t shard) const {
    return pending_[shard].size() + inflight_[shard].size();
  }
  /// Drops `token` from `shard`'s pending queue if still there.
  void unqueue(std::size_t shard, const std::string& token);
  /// Admission control: called with a full backlog before accepting a
  /// job of `incoming_priority`. Either sheds the lowest-priority
  /// pending job (emitting its "delayed" error, WITH its seq — it was
  /// accepted) and returns true (admit the incoming job), or returns
  /// false (shed the incoming job instead: it is not above the floor).
  bool shed_for(int incoming_priority, std::vector<std::string>* out);

  /// Enforces the class comment's "single-threaded by design": mutating
  /// entry points bind to the first calling thread and abort on any other
  /// (see util/thread_checker.hpp). Lock-free state stays honest.
  util::ThreadChecker thread_checker_{"ShardRouter"};

  RouterOptions options_;
  HashRing ring_;
  std::vector<bool> alive_;
  std::vector<std::deque<std::string>> pending_;  ///< tokens, FIFO
  std::vector<std::unordered_set<std::string>> inflight_;
  std::vector<bool> pong_;
  std::vector<std::optional<std::string>> stats_export_;  ///< per shard
  /// Per-shard round-trip latency (unique_ptr: atomics are immovable).
  std::vector<std::unique_ptr<obs::Histogram>> latency_;
  std::unordered_map<std::string, Job> jobs_;  ///< token -> outstanding job
  /// Problem fingerprint per instance-source key: a duplicated-instance
  /// stream builds (and hashes) the instance once, not once per line.
  std::unordered_map<std::string, std::uint64_t> fingerprint_memo_;
  std::vector<Drain> drains_;
  std::uint64_t next_ordinal_ = 0;
  std::int64_t next_seq_ = 0;
  bool any_error_ = false;
  Stats stats_;
};

}  // namespace saim::service
