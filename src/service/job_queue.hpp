// Priority job queue for the solve service.
//
// Three strict priority bands with FIFO order inside each band: a kHigh
// job always pops before any kNormal job, and two jobs of equal priority
// pop in submission order. pop() blocks until an item arrives or the queue
// is closed; close() wakes every blocked consumer, and drain() atomically
// removes whatever is still pending so shutdown can fail those jobs
// explicitly instead of leaving their waiters hanging.
//
// Templated on the item type so the ordering logic is testable with plain
// values; the service instantiates it with shared_ptr<JobState>.
#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace saim::service {

/// Higher pops first; FIFO within a band.
enum class Priority : int { kLow = 0, kNormal = 1, kHigh = 2 };

[[nodiscard]] constexpr const char* to_string(Priority p) noexcept {
  switch (p) {
    case Priority::kLow: return "low";
    case Priority::kNormal: return "normal";
    case Priority::kHigh: return "high";
  }
  return "unknown";
}

template <typename T>
class JobQueue {
 public:
  static constexpr std::size_t kBands = 3;

  /// Enqueues into the priority band. Returns false (item dropped) once
  /// the queue is closed.
  bool push(T item, Priority priority = Priority::kNormal)
      SAIM_EXCLUDES(mutex_) {
    {
      util::MutexLock lock(mutex_);
      if (closed_) return false;
      bands_[band(priority)].push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed; nullopt
  /// means closed-and-empty (consumers should exit).
  std::optional<T> pop() SAIM_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    while (!closed_ && empty_locked()) cv_.wait(lock.native());
    return pop_locked();
  }

  /// Non-blocking pop; nullopt when nothing is pending.
  std::optional<T> try_pop() SAIM_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return pop_locked();
  }

  /// Stops intake and wakes all blocked consumers. Pending items remain
  /// poppable unless drain()ed first.
  void close() SAIM_EXCLUDES(mutex_) {
    {
      util::MutexLock lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Atomically removes and returns every pending item, highest priority
  /// first (FIFO within priority).
  std::vector<T> drain() SAIM_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    std::vector<T> out;
    for (std::size_t b = kBands; b-- > 0;) {
      for (auto& item : bands_[b]) out.push_back(std::move(item));
      bands_[b].clear();
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const SAIM_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    std::size_t total = 0;
    for (const auto& b : bands_) total += b.size();
    return total;
  }

  [[nodiscard]] bool closed() const SAIM_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return closed_;
  }

 private:
  static constexpr std::size_t band(Priority p) noexcept {
    const int v = static_cast<int>(p);
    return static_cast<std::size_t>(v < 0 ? 0 : v >= int(kBands) ? kBands - 1
                                                                 : v);
  }

  [[nodiscard]] bool empty_locked() const SAIM_REQUIRES(mutex_) {
    for (const auto& b : bands_) {
      if (!b.empty()) return false;
    }
    return true;
  }

  std::optional<T> pop_locked() SAIM_REQUIRES(mutex_) {
    for (std::size_t b = kBands; b-- > 0;) {
      if (!bands_[b].empty()) {
        T item = std::move(bands_[b].front());
        bands_[b].pop_front();
        return item;
      }
    }
    return std::nullopt;
  }

  mutable util::Mutex mutex_;
  std::condition_variable cv_;
  std::array<std::deque<T>, kBands> bands_ SAIM_GUARDED_BY(mutex_);
  bool closed_ SAIM_GUARDED_BY(mutex_) = false;
};

}  // namespace saim::service
