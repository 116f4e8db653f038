#include "service/result_cache.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

namespace saim::service {

std::shared_ptr<const core::SolveResult> ResultCache::get(std::uint64_t key) {
  util::MutexLock lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to most-recent
  return it->second->value;
}

void ResultCache::evict_one_locked() {
  // Cost-weighted LRU: among the tail (least-recently-used) entries, drop
  // the one that is cheapest to recompute (total_sweeps). The window is
  // capped at both kEvictionWindow and HALF the list, so the
  // most-recently-used half keeps plain-LRU protection — a hot cheap
  // entry bumped by get() can never be sacrificed to keep cold expensive
  // ones. Strictly-less comparison walking back-to-front keeps the older
  // entry on ties, so with uniform costs this degenerates to plain LRU.
  const std::size_t window =
      std::min(kEvictionWindow, std::max<std::size_t>(1, lru_.size() / 2));
  auto victim = std::prev(lru_.end());
  std::size_t victim_cost = victim->value->total_sweeps;
  auto it = victim;
  for (std::size_t scanned = 1; scanned < window; ++scanned) {
    --it;
    if (it->value->total_sweeps < victim_cost) {
      victim = it;
      victim_cost = it->value->total_sweeps;
    }
  }
  index_.erase(victim->key);
  lru_.erase(victim);
  ++stats_.evictions;
}

void ResultCache::put(std::uint64_t key,
                      std::shared_ptr<const core::SolveResult> value) {
  if (capacity_ == 0 || !value) return;
  util::MutexLock lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) evict_one_locked();
  lru_.push_front(Entry{key, std::move(value)});
  index_[key] = lru_.begin();
  ++stats_.insertions;
}

ResultCache::Stats ResultCache::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

std::size_t ResultCache::size() const {
  util::MutexLock lock(mutex_);
  return lru_.size();
}

void ResultCache::clear() {
  util::MutexLock lock(mutex_);
  lru_.clear();
  index_.clear();
}

}  // namespace saim::service
