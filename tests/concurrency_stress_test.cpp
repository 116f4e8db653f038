// Concurrency stress suite — small, fast hammers for the lock-protected
// containers the solve service is built from. Each test drives one
// component from several threads at once and then checks a conservation
// invariant (nothing lost, nothing duplicated, counters coherent).
//
// The gen-instance memo (job_parser) gets the same treatment: racing
// parses of one spec must all come back sharing one problem.
//
// These tests earn their keep under ThreadSanitizer: CI's tsan tier runs
// them with -fsanitize=thread, where any unsynchronized access the static
// annotations (util/thread_annotations.hpp) could not see becomes a hard
// failure. Thread and iteration counts are sized to finish in well under
// a second per test on a laptop, so the suite stays tier-1.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/result.hpp"
#include "obs/metrics.hpp"
#include "problems/fingerprint.hpp"
#include "problems/qkp.hpp"
#include "service/job_parser.hpp"
#include "service/job_queue.hpp"
#include "service/result_cache.hpp"
#include "util/jsonl.hpp"

namespace saim {
namespace {

constexpr std::size_t kThreads = 4;

// ---------------------------------------------------------------- JobQueue

TEST(ConcurrencyStress, JobQueuePushPopDrainConservesItems) {
  service::JobQueue<int> queue;
  constexpr int kPerProducer = 2000;

  std::atomic<std::uint64_t> popped{0};
  std::atomic<std::uint64_t> drained{0};
  std::atomic<std::uint64_t> popped_sum{0};
  std::atomic<std::uint64_t> drained_sum{0};

  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&queue, t] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto priority = static_cast<service::Priority>(i % 3);
        const int value = static_cast<int>(t) * kPerProducer + i;
        ASSERT_TRUE(queue.push(value, priority));
      }
    });
  }

  std::vector<std::thread> consumers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    consumers.emplace_back([&] {
      while (auto item = queue.pop()) {
        popped.fetch_add(1, std::memory_order_relaxed);
        popped_sum.fetch_add(static_cast<std::uint64_t>(*item),
                             std::memory_order_relaxed);
      }
    });
  }

  // A scavenger racing the consumers: batch-drains even values the way
  // the service's batch scheduler pulls same-key twins mid-stream.
  std::thread scavenger([&] {
    for (int round = 0; round < 300; ++round) {
      for (const int v :
           queue.drain_matching(8, [](const int& x) { return x % 2 == 0; })) {
        drained.fetch_add(1, std::memory_order_relaxed);
        drained_sum.fetch_add(static_cast<std::uint64_t>(v),
                              std::memory_order_relaxed);
      }
      std::this_thread::yield();
    }
  });

  for (auto& p : producers) p.join();
  scavenger.join();
  queue.close();  // consumers exit once the backlog is gone
  for (auto& c : consumers) c.join();

  constexpr std::uint64_t kTotal = kThreads * kPerProducer;
  EXPECT_EQ(popped.load() + drained.load(), kTotal);
  // Every produced value left the queue exactly once: the value sums
  // (unique across producers) must add up to sum(0 .. kTotal-1).
  EXPECT_EQ(popped_sum.load() + drained_sum.load(),
            kTotal * (kTotal - 1) / 2);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(ConcurrencyStress, JobQueueCloseRacingPushDropsCleanly) {
  service::JobQueue<int> queue;
  std::atomic<std::uint64_t> accepted{0};

  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        if (queue.push(i)) accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread closer([&] {
    std::this_thread::yield();
    queue.close();
  });
  for (auto& p : producers) p.join();
  closer.join();

  // Whatever was accepted before close() is still fully poppable; pushes
  // that lost the race were reported dropped, not silently half-queued.
  EXPECT_EQ(queue.drain().size(), accepted.load());
  EXPECT_TRUE(queue.closed());
}

// -------------------------------------------------------------- ResultCache

std::shared_ptr<const core::SolveResult> make_result(std::size_t sweeps) {
  auto result = std::make_shared<core::SolveResult>();
  result->status = core::Status::kCompleted;
  result->total_sweeps = sweeps;
  return result;
}

TEST(ConcurrencyStress, ResultCacheConcurrentPutGetEvict) {
  // Capacity far below the key space, so eviction runs constantly while
  // other threads read and overwrite.
  service::ResultCache cache(/*capacity=*/32, /*warm_capacity=*/8);
  constexpr std::uint64_t kKeySpace = 128;

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (std::uint64_t i = 0; i < 3000; ++i) {
        const std::uint64_t key = (t * 31 + i * 7) % kKeySpace;
        if (i % 3 == 0) {
          cache.put(key, make_result(/*sweeps=*/key + 1));
        } else if (auto hit = cache.get(key)) {
          // A hit must hand back a live, completed result even while
          // eviction churns the LRU list under it.
          EXPECT_EQ(hit->status, core::Status::kCompleted);
        }
        if (i % 5 == 0) {
          ising::Bits bits(8, static_cast<std::uint8_t>(t & 1));
          cache.put_warm(key % 16, bits, static_cast<double>(i % 11));
        }
        if (i % 7 == 0) {
          (void)cache.warm_samples(key % 16);
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_LE(cache.warm_pool_size(), 8u);
  const auto stats = cache.stats();
  // Conservation: entries present == entries ever inserted - evicted
  // (overwrites count as neither), and every lookup was a hit or a miss.
  EXPECT_EQ(stats.insertions - stats.evictions, cache.size());
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_GT(stats.warm_hits + stats.warm_misses, 0u);
}

// ---------------------------------------------------------- MetricsRegistry

TEST(ConcurrencyStress, MetricsRegistryConcurrentRegisterRecordScrape) {
  obs::MetricsRegistry registry;
  constexpr std::uint64_t kAddsPerThread = 5000;
  std::atomic<bool> stop_scraping{false};

  // All threads get-or-create the SAME metrics concurrently — the handles
  // they get back must alias one underlying object.
  std::vector<std::thread> recorders;
  for (std::size_t t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&registry, t] {
      obs::Counter& hits = registry.counter("stress_hits");
      obs::Histogram& lat = registry.histogram("stress_latency_ms");
      obs::Gauge& depth = registry.gauge("stress_depth");
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
        hits.add(1);
        lat.observe(static_cast<double>((i % 50) + 1));
        depth.set(static_cast<double>(t));
        if (i % 64 == 0) {
          // Late registration under load: a distinct name per thread.
          registry.counter("stress_thread_" + std::to_string(t)).add(1);
        }
      }
    });
  }

  // Scrape concurrently with registration and recording: the exposition
  // must always be well-formed (non-empty, every header paired).
  std::thread scraper([&] {
    while (!stop_scraping.load(std::memory_order_relaxed)) {
      const std::string payload = registry.render_prometheus();
      EXPECT_NE(payload.find("# TYPE"), std::string::npos);
      (void)registry.names();
      (void)registry.histogram_snapshot("stress_latency_ms");
      std::this_thread::yield();
    }
  });

  for (auto& r : recorders) r.join();
  stop_scraping.store(true, std::memory_order_relaxed);
  scraper.join();

  EXPECT_EQ(registry.counter("stress_hits").value(),
            kThreads * kAddsPerThread);
  const auto snap = registry.histogram_snapshot("stress_latency_ms");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->count, kThreads * kAddsPerThread);
  // kThreads distinct late-registered counters + the three shared ones.
  EXPECT_EQ(registry.names().size(), kThreads + 3);
}

// --------------------------------------------------------- gen memo

TEST(ConcurrencyStress, ParseJobSharesOneProblemPerGenSpec) {
  // A spec no other test in this binary parses, so the memo starts cold
  // and the threads race to build it.
  const util::JsonValue line =
      util::parse_json(R"({"id":"j","gen":"qkp:40-25-3","iterations":5})");
  std::vector<service::ParsedJob> parsed(kThreads * 4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < parsed.size(); i += kThreads) {
        parsed[i] = service::parse_job(line, /*warm_default=*/false);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto instance = problems::make_paper_qkp(40, 25, 3);
  const auto want = problems::qkp_to_problem(instance).problem;
  for (const auto& job : parsed) {
    ASSERT_EQ(job.request.problem, parsed.front().request.problem);
    EXPECT_EQ(job.instance, instance.name());
    EXPECT_EQ(job.request.tag, "j");
  }
  const auto& got = *parsed.front().request.problem;
  EXPECT_EQ(problems::fingerprint(got), problems::fingerprint(want));
  EXPECT_EQ(got.n(), want.n());
  EXPECT_EQ(got.num_constraints(), want.num_constraints());
}

}  // namespace
}  // namespace saim
