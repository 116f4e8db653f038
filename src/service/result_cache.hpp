// LRU cache of completed solve results, keyed by request fingerprint.
//
// Values are shared_ptr<const SolveResult>: a hit hands back
// the *same* object the original computation produced, so cached results
// are bit-identical to the first solve by construction (and tests can
// assert "no recompute" by pointer equality). Only kCompleted results
// belong here — the service never caches partial (cancelled/deadline)
// solves. Eviction is cost-weighted LRU: when the cache is full, the tail
// of the recency list — at most kEvictionWindow entries, never more than
// half the list, so recency still protects the hot half — is scanned and
// the entry with the smallest recompute cost (SolveResult::total_sweeps)
// is dropped: a 2-ms solve makes room before a 2-second one, scans stay
// O(1).
//
// Thread-safe; all operations are O(1) in the table size.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "core/result.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace saim::service {

class ResultCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;

    [[nodiscard]] double hit_rate() const noexcept {
      const std::uint64_t lookups = hits + misses;
      return lookups ? static_cast<double>(hits) /
                           static_cast<double>(lookups)
                     : 0.0;
    }
  };

  /// Tail entries considered per eviction (cost-weighted LRU).
  static constexpr std::size_t kEvictionWindow = 8;

  /// capacity == 0 disables the cache (every lookup misses, puts drop).
  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the cached result and bumps it to most-recently-used, or
  /// nullptr on miss. Counts toward stats either way.
  std::shared_ptr<const core::SolveResult> get(std::uint64_t key)
      SAIM_EXCLUDES(mutex_);

  /// Inserts/overwrites; when full, evicts the cheapest-to-recompute entry
  /// among the kEvictionWindow least-recently-used ones.
  void put(std::uint64_t key, std::shared_ptr<const core::SolveResult> value)
      SAIM_EXCLUDES(mutex_);

  [[nodiscard]] Stats stats() const SAIM_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t size() const SAIM_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  void clear() SAIM_EXCLUDES(mutex_);

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::shared_ptr<const core::SolveResult> value;
  };

  void evict_one_locked() SAIM_REQUIRES(mutex_);

  std::size_t capacity_;
  mutable util::Mutex mutex_;
  std::list<Entry> lru_ SAIM_GUARDED_BY(mutex_);  ///< front = most recent
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_
      SAIM_GUARDED_BY(mutex_);
  Stats stats_ SAIM_GUARDED_BY(mutex_);
};

}  // namespace saim::service
