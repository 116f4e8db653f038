#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "core/result.hpp"
#include "service/job_queue.hpp"
#include "service/result_cache.hpp"
#include "util/parallel.hpp"

namespace saim::service {
namespace {

// ----------------------------------------------------------------- queue

TEST(JobQueue, FifoWithinOnePriority) {
  JobQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
}

TEST(JobQueue, HigherPriorityPopsFirst) {
  JobQueue<int> q;
  q.push(1, Priority::kLow);
  q.push(2, Priority::kNormal);
  q.push(3, Priority::kHigh);
  q.push(4, Priority::kNormal);
  q.push(5, Priority::kHigh);
  // Strict bands, FIFO inside each: high (3,5), normal (2,4), low (1).
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), 5);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 4);
  EXPECT_EQ(q.pop(), 1);
}

TEST(JobQueue, TryPopOnEmptyReturnsNothing) {
  JobQueue<int> q;
  EXPECT_FALSE(q.try_pop().has_value());
  q.push(9);
  EXPECT_EQ(q.try_pop(), 9);
}

TEST(JobQueue, CloseWakesBlockedConsumer) {
  JobQueue<int> q;
  std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
}

TEST(JobQueue, PushAfterCloseIsRejected) {
  JobQueue<int> q;
  q.close();
  EXPECT_FALSE(q.push(1));
  EXPECT_TRUE(q.closed());
}

TEST(JobQueue, DrainRemovesEverythingInPriorityOrder) {
  JobQueue<int> q;
  q.push(1, Priority::kLow);
  q.push(2, Priority::kHigh);
  q.push(3, Priority::kNormal);
  q.push(4, Priority::kHigh);
  const auto drained = q.drain();
  ASSERT_EQ(drained.size(), 4u);
  EXPECT_EQ(drained[0], 2);
  EXPECT_EQ(drained[1], 4);
  EXPECT_EQ(drained[2], 3);
  EXPECT_EQ(drained[3], 1);
  EXPECT_EQ(q.size(), 0u);
}

TEST(JobQueue, ConcurrentProducersLoseNothing) {
  JobQueue<int> q;
  constexpr int kPerProducer = 200;
  util::parallel_for(
      4,
      [&](std::size_t p) {
        for (int i = 0; i < kPerProducer; ++i) {
          q.push(static_cast<int>(p) * kPerProducer + i);
        }
      },
      4);
  EXPECT_EQ(q.size(), 4u * kPerProducer);
  std::vector<bool> seen(4 * kPerProducer, false);
  while (auto v = q.try_pop()) seen[static_cast<std::size_t>(*v)] = true;
  for (const bool s : seen) EXPECT_TRUE(s);
}

// ----------------------------------------------------------------- cache

std::shared_ptr<const core::SolveResult> result_with_cost(
    double cost, std::size_t total_sweeps = 0) {
  auto r = std::make_shared<core::SolveResult>();
  r->found_feasible = true;
  r->best_cost = cost;
  r->total_sweeps = total_sweeps;
  return r;
}

TEST(ResultCache, MissThenHitReturnsSameObject) {
  ResultCache cache(4);
  EXPECT_EQ(cache.get(1), nullptr);
  const auto value = result_with_cost(-5.0);
  cache.put(1, value);
  const auto hit = cache.get(1);
  EXPECT_EQ(hit.get(), value.get());  // identity, not equality
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.put(1, result_with_cost(-1));
  cache.put(2, result_with_cost(-2));
  ASSERT_NE(cache.get(1), nullptr);  // bump 1: now 2 is LRU
  cache.put(3, result_with_cost(-3));
  EXPECT_EQ(cache.get(2), nullptr);  // evicted
  EXPECT_NE(cache.get(1), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCache, OverwriteKeepsSingleEntry) {
  ResultCache cache(2);
  cache.put(1, result_with_cost(-1));
  cache.put(1, result_with_cost(-9));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(cache.get(1)->best_cost, -9);
}

TEST(ResultCache, ZeroCapacityDisables) {
  ResultCache cache(0);
  cache.put(1, result_with_cost(-1));
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCache, EvictionIsWeightedByRecomputeCost) {
  // An EXPENSIVE old entry and a CHEAP newer one in the tail half:
  // inserting into a full cache must sacrifice the cheap entry even
  // though the expensive one is least-recently used — plain LRU would
  // throw away the 2-second solve to keep the 2-ms one.
  ResultCache cache(4);
  cache.put(1, result_with_cost(-1, /*total_sweeps=*/1000000));
  cache.put(2, result_with_cost(-2, /*total_sweeps=*/10));
  cache.put(3, result_with_cost(-3, /*total_sweeps=*/800));
  cache.put(4, result_with_cost(-4, /*total_sweeps=*/900));
  cache.put(5, result_with_cost(-5, /*total_sweeps=*/700));
  EXPECT_EQ(cache.get(2), nullptr);  // cheap one evicted
  EXPECT_NE(cache.get(1), nullptr);  // expensive LRU survivor
  EXPECT_NE(cache.get(3), nullptr);
  EXPECT_NE(cache.get(4), nullptr);
  EXPECT_NE(cache.get(5), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCache, EvictionNeverReachesTheHotHalf) {
  // The scan window is capped at half the list: a cheap entry that was
  // just hit (most-recently used) keeps plain-LRU protection no matter
  // how expensive the cold tail is.
  ResultCache cache(2);  // window = 1: degenerates to plain LRU
  cache.put(1, result_with_cost(-1, /*total_sweeps=*/1000000));
  cache.put(2, result_with_cost(-2, /*total_sweeps=*/10));
  ASSERT_NE(cache.get(2), nullptr);  // cheap entry is MRU
  cache.put(3, result_with_cost(-3, /*total_sweeps=*/500));
  EXPECT_NE(cache.get(2), nullptr);  // survived: recency protected it
  EXPECT_EQ(cache.get(1), nullptr);  // the LRU went, expensive or not
}

TEST(ResultCache, EvictionWindowIsBounded) {
  // Entries beyond the scan window keep strict LRU protection: with a
  // window of kEvictionWindow, a cheap entry in front position is safe.
  ResultCache cache(ResultCache::kEvictionWindow + 4);
  cache.put(1, result_with_cost(-1, /*total_sweeps=*/1));  // cheapest...
  for (std::uint64_t k = 2; k <= ResultCache::kEvictionWindow + 4; ++k) {
    cache.put(k, result_with_cost(-double(k), /*total_sweeps=*/1000));
  }
  cache.get(1);  // ...but bumped to most-recent: outside the tail window
  cache.put(99, result_with_cost(-99, /*total_sweeps=*/1000));
  EXPECT_NE(cache.get(1), nullptr);  // survived despite being cheapest
  EXPECT_EQ(cache.stats().evictions, 1u);
}

// ISSUE 4 satellite: eviction edge cases around tiny caches — the scan
// window must clamp to the actual list size (no empty-window scan, no
// size/2 underflow when the list holds one entry) and capacity 0 must be
// inert for every operation.

TEST(ResultCache, CapacityOneEvictsOnEveryInsertWithoutUnderflow) {
  ResultCache cache(1);  // size/2 == 0: window must clamp to 1
  for (std::uint64_t k = 1; k <= 50; ++k) {
    cache.put(k, result_with_cost(-double(k), /*total_sweeps=*/k));
    ASSERT_EQ(cache.size(), 1u);
    ASSERT_NE(cache.get(k), nullptr);  // the newest entry always survives
  }
  EXPECT_EQ(cache.stats().evictions, 49u);
  EXPECT_EQ(cache.get(1), nullptr);
}

TEST(ResultCache, EvictionWithFewerEntriesThanTheTailWindow) {
  // capacity < kEvictionWindow: the scan window is half the LIST, never
  // the full kEvictionWindow — churning through many keys must stay
  // in-bounds and keep exactly `capacity` entries.
  static_assert(3 < ResultCache::kEvictionWindow);
  ResultCache cache(3);
  for (std::uint64_t k = 1; k <= 30; ++k) {
    cache.put(k, result_with_cost(-double(k), /*total_sweeps=*/1000 - k));
    ASSERT_LE(cache.size(), 3u);
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 27u);
  EXPECT_NE(cache.get(30), nullptr);  // most recent insert always present
}

TEST(ResultCache, ZeroCapacityStillCountsLookupsAndNeverEvicts) {
  ResultCache cache(0);
  cache.put(1, result_with_cost(-1));
  cache.put(1, result_with_cost(-1));
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);  // lookups still measured
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.0);
}

TEST(ResultCache, OverwriteAtFullCapacityDoesNotEvict) {
  ResultCache cache(2);
  cache.put(1, result_with_cost(-1));
  cache.put(2, result_with_cost(-2));
  cache.put(1, result_with_cost(-9));  // overwrite, cache already full
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_DOUBLE_EQ(cache.get(1)->best_cost, -9);
  EXPECT_DOUBLE_EQ(cache.get(2)->best_cost, -2);
}

TEST(ResultCache, NullValueIsNeverInserted) {
  ResultCache cache(2);
  cache.put(1, nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(ResultCache, ConcurrentMixedTrafficStaysConsistent) {
  ResultCache cache(16);
  util::parallel_for(
      8,
      [&](std::size_t t) {
        for (int i = 0; i < 500; ++i) {
          const auto key = static_cast<std::uint64_t>((t * 31 + i) % 32);
          if (i % 3 == 0) {
            cache.put(key, result_with_cost(-double(key)));
          } else if (auto hit = cache.get(key)) {
            EXPECT_DOUBLE_EQ(hit->best_cost, -double(key));
          }
        }
      },
      8);
  EXPECT_LE(cache.size(), 16u);
}

}  // namespace
}  // namespace saim::service
