// Tests for the sharded serving front door: the consistent-hash ring and
// ShardRouter logic (no processes), the ProcessChild pipe wrapper (driven
// with /bin/cat), and — when the build provides SAIM_SERVE_BIN — the real
// thing: saim_serve children under the Supervisor's pump, including the
// failover contract of ISSUE 4: kill a child mid-stream and every
// accepted job still produces exactly one result or error line with a
// correct global seq. Also pins the serving-protocol guarantees the
// router depends on: rejected lines consume no seq, ping answers
// mid-stream, drain certifies the past.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <deque>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "service/process_child.hpp"
#include "service/shard_router.hpp"
#include "service/supervisor.hpp"
#include "util/jsonl.hpp"

namespace saim::service {
namespace {

// ------------------------------------------------------------------- ring

TEST(HashRing, RoutesEveryKeyAndUsesEveryShard) {
  HashRing ring(64);
  for (std::size_t s = 0; s < 4; ++s) ring.add(s);
  std::set<std::size_t> used;
  for (std::uint64_t k = 0; k < 4096; ++k) {
    const std::size_t shard = ring.route(k * 0x9e3779b97f4a7c15ULL);
    ASSERT_LT(shard, 4u);
    used.insert(shard);
  }
  EXPECT_EQ(used.size(), 4u);  // 64 vnodes/shard: all shards get traffic
}

TEST(HashRing, RoutingIsDeterministic) {
  HashRing a(32), b(32);
  for (std::size_t s = 0; s < 3; ++s) {
    a.add(s);
    b.add(s);
  }
  for (std::uint64_t k = 1; k < 100; ++k) {
    EXPECT_EQ(a.route(k * 7919), b.route(k * 7919));
  }
}

TEST(HashRing, RemovalOnlyRemapsTheDeadShardsKeys) {
  HashRing ring(64);
  for (std::size_t s = 0; s < 4; ++s) ring.add(s);
  std::map<std::uint64_t, std::size_t> before;
  for (std::uint64_t k = 0; k < 2048; ++k) {
    const std::uint64_t key = k * 0x9e3779b97f4a7c15ULL;
    before[key] = ring.route(key);
  }
  ring.remove(2);
  for (const auto& [key, owner] : before) {
    const std::size_t now = ring.route(key);
    if (owner != 2) {
      EXPECT_EQ(now, owner) << "consistent hashing must not move keys of "
                               "surviving shards";
    } else {
      EXPECT_NE(now, 2u);
    }
  }
}

TEST(HashRing, EmptyRingThrows) {
  HashRing ring;
  EXPECT_THROW((void)ring.route(1), std::runtime_error);
  EXPECT_THROW((void)ring.clockwise(1), std::runtime_error);
  ring.add(0);
  EXPECT_EQ(ring.route(1), 0u);
  EXPECT_EQ(ring.clockwise(1), std::vector<std::size_t>{0});
  ring.remove(0);
  EXPECT_THROW((void)ring.route(1), std::runtime_error);
}

TEST(HashRing, ClockwiseListsEveryShardOnceOwnerFirst) {
  HashRing ring(64);
  for (std::size_t s = 0; s < 5; ++s) ring.add(s);
  std::map<std::uint64_t, std::vector<std::size_t>> before;
  for (std::uint64_t k = 0; k < 512; ++k) {
    const std::uint64_t key = k * 0x9e3779b97f4a7c15ULL;
    const auto order = ring.clockwise(key);
    ASSERT_EQ(order.size(), 5u);
    EXPECT_EQ(order.front(), ring.route(key));
    EXPECT_EQ(std::set<std::size_t>(order.begin(), order.end()).size(), 5u);
    before[key] = order;
  }
  // Removing a shard drops it from every walk and keeps the others in
  // their order: a spill target moves only when it leaves the ring.
  ring.remove(3);
  for (const auto& [key, order] : before) {
    std::vector<std::size_t> want;
    for (const std::size_t s : order) {
      if (s != 3) want.push_back(s);
    }
    EXPECT_EQ(ring.clockwise(key), want);
  }
}

// -------------------------------------------------- router (no processes)

/// A valid gen job line. Small instances keep fingerprinting cheap.
std::string job_line(const std::string& id, int k, std::uint64_t seed) {
  return "{\"id\":\"" + id + "\",\"gen\":\"qkp:30-25-" + std::to_string(k) +
         "\",\"iterations\":2,\"sweeps\":20,\"seed\":" + std::to_string(seed) +
         "}";
}

/// Extracts the token the router assigned (the rewritten line's id).
std::string token_of(const std::string& rewritten) {
  const auto v = util::parse_json(rewritten);
  return v.find("id")->as_string();
}

/// Fakes a child's accepted-result line for `token` with per-shard `seq`.
std::string fake_result(const std::string& token, std::int64_t shard_seq) {
  return "{\"id\":\"" + token +
         "\",\"status\":\"completed\",\"best_cost\":-12.5,\"seq\":" +
         std::to_string(shard_seq) + "}";
}

RouterOptions two_shards(std::size_t window = 8) {
  RouterOptions options;
  options.shards = 2;
  options.window = window;
  return options;
}

/// Queued plus in-flight jobs on `shard`: the load placement bounds.
std::size_t load(const ShardRouter& router, std::size_t shard) {
  return router.pending(shard) + router.inflight(shard);
}

/// The bounded-load cap for `outstanding` jobs on `live` shards.
std::size_t load_cap(std::size_t window, std::size_t outstanding,
                     std::size_t live) {
  return std::max(window, (5 * outstanding + 4 * live - 1) / (4 * live));
}

/// Writes every sendable job of every live shard, as the pump would.
void send_all(ShardRouter& router) {
  for (std::size_t s = 0; s < router.shard_slots(); ++s) {
    (void)router.take_sendable(s);
  }
}

TEST(ShardRouter, InstanceTwinsShareTheOwnerWhileItIsUnderTheWindow) {
  ShardRouter router(two_shards(/*window=*/8));
  for (int j = 0; j < 8; ++j) {
    EXPECT_TRUE(router
                    .accept_line(job_line("t" + std::to_string(j), 1, j + 1),
                                 static_cast<std::size_t>(j + 1))
                    .empty());
  }
  const std::size_t owner = router.pending(0) == 8 ? 0 : 1;
  EXPECT_EQ(router.pending(owner), 8u) << "instance twins must share a "
                                          "shard for cache locality";
  EXPECT_EQ(router.pending(1 - owner), 0u);
  EXPECT_EQ(router.stats().routed_per_shard[owner], 8u);
  EXPECT_EQ(router.stats().spilled_per_shard[0], 0u);
  EXPECT_EQ(router.stats().spilled_per_shard[1], 0u);

  // The owner now holds a full window: the next twin spills.
  router.accept_line(job_line("t8", 1, 9), 9);
  EXPECT_EQ(router.pending(1 - owner), 1u);
  EXPECT_EQ(router.stats().spilled_per_shard[1 - owner], 1u);
}

TEST(ShardRouter, BurstOfTwinsEndsWithNoShardAboveTheCap) {
  RouterOptions options;
  options.shards = 4;
  options.window = 8;
  ShardRouter router(options);
  constexpr std::size_t kBurst = 200;
  for (std::size_t j = 0; j < kBurst; ++j) {
    router.accept_line(job_line("b" + std::to_string(j), 1, j + 1), j + 1);
    send_all(router);
  }
  const std::size_t cap = load_cap(8, kBurst, 4);  // ceil(1.25 * 50) = 63
  std::size_t total = 0;
  std::size_t spilled = 0;
  std::size_t used = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_LE(load(router, s), cap) << "shard " << s;
    EXPECT_EQ(router.inflight(s), std::min<std::size_t>(load(router, s), 8));
    total += load(router, s);
    spilled += router.stats().spilled_per_shard[s];
    if (load(router, s) > 0) ++used;
  }
  EXPECT_EQ(total, kBurst);
  EXPECT_EQ(used, 4u) << "3 x 63 < 200: the walk must reach the last shard";
  // Only the owner takes twins without spilling.
  const auto& routed = router.stats().routed_per_shard;
  EXPECT_EQ(spilled, kBurst - *std::max_element(routed.begin(), routed.end()));
  EXPECT_EQ(router.outstanding(), kBurst);
}

TEST(ShardRouter, TwinsReturnToTheOwnerOnceItsBacklogDrains) {
  ShardRouter router(two_shards(/*window=*/4));
  for (std::size_t j = 0; j < 10; ++j) {
    router.accept_line(job_line("d" + std::to_string(j), 1, j + 1), j + 1);
  }
  const std::size_t owner = router.stats().spilled_per_shard[0] > 0 ? 1 : 0;
  const std::size_t other = 1 - owner;
  ASSERT_GT(router.stats().spilled_per_shard[other], 0u);
  ASSERT_GT(load(router, owner), 4u);

  // The owner answers its whole backlog, window by window.
  std::int64_t shard_seq = 0;
  for (auto sent = router.take_sendable(owner); !sent.empty();
       sent = router.take_sendable(owner)) {
    for (const auto& line : sent) {
      ASSERT_EQ(router.on_child_line(owner,
                                     fake_result(token_of(line), shard_seq++))
                    .size(),
                1u);
    }
  }
  ASSERT_EQ(load(router, owner), 0u);
  const std::uint64_t spilled_before = router.stats().spilled_per_shard[other];
  const std::size_t other_before = load(router, other);

  // The spilled twins still wait on the other shard, yet new twins go
  // home: the owner is under its window again.
  for (std::size_t j = 10; j < 14; ++j) {
    router.accept_line(job_line("d" + std::to_string(j), 1, j + 1), j + 1);
  }
  EXPECT_EQ(load(router, owner), 4u);
  EXPECT_EQ(load(router, other), other_before);
  EXPECT_EQ(router.stats().spilled_per_shard[other], spilled_before);
}

TEST(ShardRouter, FailoverRequeueObeysTheSameCap) {
  RouterOptions options;
  options.shards = 3;
  options.window = 2;
  ShardRouter router(options);
  constexpr std::size_t kJobs = 30;
  router.accept_line(job_line("f0", 1, 1), 1);
  std::size_t owner = 0;
  while (router.pending(owner) == 0) ++owner;
  for (std::size_t j = 1; j < kJobs; ++j) {
    router.accept_line(job_line("f" + std::to_string(j), 1, j + 1), j + 1);
  }
  std::map<std::size_t, std::vector<std::string>> survivor_sent;
  for (std::size_t s = 0; s < 3; ++s) survivor_sent[s] = router.take_sendable(s);
  const std::size_t dead_load = load(router, owner);
  ASSERT_EQ(dead_load, load_cap(2, kJobs, 3));  // the owner filled up first

  // The owner dies with its jobs unanswered. Owner-only failover would
  // pile all of them onto the key's next owner; the same bounded-load
  // rule spreads them over both survivors instead.
  const auto spilled = [&router] {
    const auto& per_shard = router.stats().spilled_per_shard;
    return std::accumulate(per_shard.begin(), per_shard.end(),
                           std::uint64_t{0});
  };
  const std::uint64_t requeued_before = router.stats().requeued;
  const std::uint64_t spilled_before = spilled();
  EXPECT_TRUE(router.on_child_down(owner).empty());
  EXPECT_EQ(router.stats().requeued - requeued_before, dead_load);
  EXPECT_GT(spilled(), spilled_before) << "the key's new owner filled up";
  const std::size_t cap = load_cap(2, kJobs, 2);
  std::size_t total = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    if (s == owner) continue;
    EXPECT_LE(load(router, s), cap) << "shard " << s;
    total += load(router, s);
  }
  EXPECT_EQ(total, kJobs);
  EXPECT_EQ(load(router, owner), 0u);

  // Every job still answers exactly once, in one contiguous seq range.
  // The in-flight jobs the survivors held before the kill were already
  // written; their children answer them first.
  std::set<std::string> ids;
  std::set<std::int64_t> seqs;
  std::int64_t shard_seq = 0;
  const auto answer = [&](std::size_t s, const std::string& token) {
    const auto out = router.on_child_line(s, fake_result(token, shard_seq++));
    ASSERT_EQ(out.size(), 1u);
    const auto line = util::parse_json(out[0]);
    ids.insert(line.find("id")->as_string());
    seqs.insert(line.find("seq")->as_int());
  };
  for (std::size_t s = 0; s < 3; ++s) {
    if (s == owner) continue;
    for (const auto& line : survivor_sent[s]) answer(s, token_of(line));
  }
  for (bool progressed = true; progressed;) {
    progressed = false;
    for (std::size_t s = 0; s < 3; ++s) {
      for (const auto& line : router.take_sendable(s)) {
        answer(s, token_of(line));
        progressed = true;
      }
    }
  }
  EXPECT_EQ(ids.size(), kJobs);
  EXPECT_EQ(seqs.size(), kJobs);
  EXPECT_EQ(*seqs.rbegin(), static_cast<std::int64_t>(kJobs) - 1);
  EXPECT_TRUE(router.idle());
}

TEST(ShardRouter, RejectsBadLinesLocallyWithoutSeq) {
  ShardRouter router(two_shards());
  const auto bad_json = router.accept_line("{nope", 1);
  ASSERT_EQ(bad_json.size(), 1u);
  EXPECT_EQ(util::parse_json(bad_json[0]).find("seq"), nullptr);
  EXPECT_NE(util::parse_json(bad_json[0]).find("error"), nullptr);
  EXPECT_EQ(util::parse_json(bad_json[0]).find("id")->as_string(), "job1");

  // Same rejection (and error text) the shard's own parser would produce.
  const auto bad_field =
      router.accept_line(R"({"id":"x","gen":"qkp:30-25-1","oops":1})", 2);
  ASSERT_EQ(bad_field.size(), 1u);
  EXPECT_NE(util::parse_json(bad_field[0])
                .find("error")
                ->as_string()
                .find("unknown job field"),
            std::string::npos);
  EXPECT_TRUE(router.any_error());
  EXPECT_EQ(router.stats().rejected, 2u);
  EXPECT_TRUE(router.idle());
}

TEST(ShardRouter, InstanceTwinsAreStillFieldValidatedOnMemoHits) {
  ShardRouter router(two_shards());
  // First line builds (and memoizes) the instance; the invalid twin hits
  // the memo but must STILL be rejected locally, exactly as the shard's
  // parser would — stats stay truthful.
  EXPECT_TRUE(router.accept_line(job_line("a", 1, 1), 1).empty());
  const auto out = router.accept_line(
      R"({"id":"twin","gen":"qkp:30-25-1","sweeps":-5})", 2);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(util::parse_json(out[0])
                .find("error")
                ->as_string()
                .find("nonnegative integer"),
            std::string::npos);
  EXPECT_EQ(router.stats().accepted, 1u);
  EXPECT_EQ(router.stats().rejected, 1u);
}

TEST(ShardRouter, WindowBoundsInflightAndRemapsSeqInCompletionOrder) {
  // One shard: with a second one, twins past the window would spill to
  // it instead of queueing behind the window.
  RouterOptions options;
  options.shards = 1;
  options.window = 2;
  ShardRouter router(options);
  for (int j = 0; j < 5; ++j) {
    router.accept_line(job_line("j" + std::to_string(j), 1, j + 1),
                       static_cast<std::size_t>(j + 1));
  }
  const std::size_t owner = 0;
  auto first = router.take_sendable(owner);
  ASSERT_EQ(first.size(), 2u) << "window must cap in-flight jobs";
  EXPECT_EQ(router.inflight(owner), 2u);
  EXPECT_EQ(router.pending(owner), 3u);
  EXPECT_TRUE(router.take_sendable(owner).empty());

  // Child answers out of submission order, with ITS seq numbers; the
  // router reassigns the global order and frees window slots.
  auto out = router.on_child_line(owner, fake_result(token_of(first[1]), 0));
  ASSERT_EQ(out.size(), 1u);
  const auto line1 = util::parse_json(out[0]);
  EXPECT_EQ(line1.find("id")->as_string(), "j1");
  EXPECT_EQ(line1.find("seq")->as_int(), 0);
  EXPECT_DOUBLE_EQ(line1.find("best_cost")->as_double(), -12.5);

  out = router.on_child_line(owner, fake_result(token_of(first[0]), 1));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(util::parse_json(out[0]).find("id")->as_string(), "j0");
  EXPECT_EQ(util::parse_json(out[0]).find("seq")->as_int(), 1);

  auto second = router.take_sendable(owner);
  EXPECT_EQ(second.size(), 2u);
  EXPECT_EQ(router.pending(owner), 1u);
}

TEST(ShardRouter, ChildRejectedLinesKeepNoSeq) {
  ShardRouter router(two_shards());
  router.accept_line(job_line("a", 1, 1), 1);
  const std::size_t owner = router.pending(0) ? 0 : 1;
  const auto sent = router.take_sendable(owner);
  ASSERT_EQ(sent.size(), 1u);
  // The child rejected the job at submission: error line, no seq.
  const auto out = router.on_child_line(
      owner, "{\"id\":\"" + token_of(sent[0]) + "\",\"error\":\"boom\"}");
  ASSERT_EQ(out.size(), 1u);
  const auto line = util::parse_json(out[0]);
  EXPECT_EQ(line.find("id")->as_string(), "a");
  EXPECT_EQ(line.find("seq"), nullptr);
  EXPECT_TRUE(router.any_error());

  // The next ACCEPTED job still starts the global order at 0.
  router.accept_line(job_line("b", 1, 2), 2);
  const auto sent2 = router.take_sendable(owner);
  const auto out2 =
      router.on_child_line(owner, fake_result(token_of(sent2[0]), 5));
  EXPECT_EQ(util::parse_json(out2[0]).find("seq")->as_int(), 0);
}

TEST(ShardRouter, DuplicateClientIdsDoNotCollide) {
  ShardRouter router(two_shards());
  router.accept_line(job_line("same", 1, 1), 1);
  router.accept_line(job_line("same", 1, 2), 2);
  const std::size_t owner = router.pending(0) ? 0 : 1;
  const auto sent = router.take_sendable(owner);
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_NE(token_of(sent[0]), token_of(sent[1]));
  const auto out0 = router.on_child_line(owner, fake_result(token_of(sent[0]), 0));
  const auto out1 = router.on_child_line(owner, fake_result(token_of(sent[1]), 1));
  EXPECT_EQ(util::parse_json(out0[0]).find("id")->as_string(), "same");
  EXPECT_EQ(util::parse_json(out1[0]).find("id")->as_string(), "same");
  EXPECT_TRUE(router.idle());
}

TEST(ShardRouter, ChildDownRequeuesEveryUnansweredJobToSurvivors) {
  ShardRouter router(two_shards(/*window=*/2));
  // Spread jobs over many instances so both shards own some.
  for (int k = 1; k <= 8; ++k) {
    router.accept_line(job_line("k" + std::to_string(k), k, 1),
                       static_cast<std::size_t>(k));
  }
  ASSERT_GT(router.pending(0) + router.inflight(0), 0u);
  ASSERT_GT(router.pending(1) + router.inflight(1), 0u);
  (void)router.take_sendable(0);  // some in flight, some pending
  std::vector<std::string> survivor_inflight = router.take_sendable(1);

  const std::size_t dead = 0;
  const std::size_t before =
      router.pending(dead) + router.inflight(dead);
  const auto orphan_lines = router.on_child_down(dead);
  EXPECT_TRUE(orphan_lines.empty()) << "a survivor exists: no job may error";
  EXPECT_FALSE(router.alive(dead));
  EXPECT_EQ(router.stats().requeued, before);
  EXPECT_EQ(router.pending(dead) + router.inflight(dead), 0u);
  EXPECT_EQ(router.outstanding(), 8u);

  // Everything now flows through the survivor — its own pre-kill
  // in-flight jobs plus everything requeued — each job exactly once.
  std::set<std::string> ids;
  std::set<std::int64_t> seqs;
  std::int64_t shard_seq = 0;
  std::deque<std::string> awaiting(survivor_inflight.begin(),
                                   survivor_inflight.end());
  while (!awaiting.empty()) {
    const auto out = router.on_child_line(
        1, fake_result(token_of(awaiting.front()), shard_seq++));
    awaiting.pop_front();
    ASSERT_EQ(out.size(), 1u);
    ids.insert(util::parse_json(out[0]).find("id")->as_string());
    seqs.insert(util::parse_json(out[0]).find("seq")->as_int());
    for (auto& line : router.take_sendable(1)) awaiting.push_back(line);
  }
  EXPECT_EQ(ids.size(), 8u);
  for (std::int64_t s = 0; s < 8; ++s) EXPECT_TRUE(seqs.contains(s));
  EXPECT_TRUE(router.idle());
}

TEST(ShardRouter, LastShardDownOrphansWithSeqAndShardField) {
  RouterOptions options;
  options.shards = 1;
  ShardRouter router(options);
  router.accept_line(job_line("a", 1, 1), 1);
  (void)router.take_sendable(0);
  const auto out = router.on_child_down(0);
  ASSERT_EQ(out.size(), 1u);
  const auto line = util::parse_json(out[0]);
  EXPECT_EQ(line.find("id")->as_string(), "a");
  EXPECT_NE(line.find("error"), nullptr);
  EXPECT_EQ(line.find("shard")->as_int(), 0);
  EXPECT_EQ(line.find("seq")->as_int(), 0);
  EXPECT_TRUE(router.idle());
  EXPECT_TRUE(router.any_error());
  EXPECT_EQ(router.stats().orphaned, 1u);

  // With the ring empty, new jobs are rejected, not stranded.
  const auto rejected = router.accept_line(job_line("b", 1, 1), 2);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_NE(util::parse_json(rejected[0]).find("error"), nullptr);
}

TEST(ShardRouter, PingAnsweredLocallyAndDrainCertifiesThePast) {
  ShardRouter router(two_shards());
  const auto pong = router.accept_line(R"({"cmd":"ping","id":"hb"})", 1);
  ASSERT_EQ(pong.size(), 1u);
  EXPECT_TRUE(util::parse_json(pong[0]).find("pong")->as_bool());
  EXPECT_EQ(util::parse_json(pong[0]).find("id")->as_string(), "hb");

  router.accept_line(job_line("a", 1, 1), 2);
  EXPECT_TRUE(router.accept_line(R"({"cmd":"drain"})", 3).empty());
  router.accept_line(job_line("late", 1, 2), 4);  // after the barrier

  const std::size_t owner = router.pending(0) ? 0 : 1;
  auto sent = router.take_sendable(owner);
  ASSERT_EQ(sent.size(), 2u);
  // The post-drain job finishing does NOT release the barrier...
  auto out = router.on_child_line(owner, fake_result(token_of(sent[1]), 0));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(util::parse_json(out[0]).find("id")->as_string(), "late");
  // ...the pre-drain job finishing does.
  out = router.on_child_line(owner, fake_result(token_of(sent[0]), 1));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(util::parse_json(out[0]).find("id")->as_string(), "a");
  EXPECT_TRUE(util::parse_json(out[1]).find("drained")->as_bool());
  EXPECT_TRUE(router.idle());

  // Child pongs are consumed as health signals, never forwarded.
  EXPECT_FALSE(router.take_pong(owner));
  EXPECT_TRUE(router.on_child_line(owner, R"({"id":"x","pong":true})").empty());
  EXPECT_TRUE(router.take_pong(owner));
  EXPECT_FALSE(router.take_pong(owner));
}

TEST(ShardRouter, LateAnswerFromADownShardUnqueuesTheRequeuedJob) {
  ShardRouter router(two_shards());
  EXPECT_TRUE(router.accept_line(job_line("a", 1, 1), 1).empty());
  const std::size_t owner = router.pending(0) ? 0 : 1;
  const std::size_t survivor = 1 - owner;
  const auto sent = router.take_sendable(owner);
  ASSERT_EQ(sent.size(), 1u);
  const std::string token = token_of(sent[0]);

  // The owner leaves the ring with the job in flight (a reshard retiree
  // still answers), so the job waits in the survivor's pending queue.
  EXPECT_TRUE(router.on_child_down(owner).empty());
  EXPECT_EQ(router.pending(survivor), 1u);
  EXPECT_EQ(router.stats().requeued, 1u);

  // The departed owner's late answer wins: one client line, and the
  // requeued copy leaves the survivor's queue unsent.
  const auto out = router.on_child_line(owner, fake_result(token, 0));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(util::parse_json(out[0]).find("id")->as_string(), "a");
  EXPECT_EQ(util::parse_json(out[0]).find("seq")->as_int(), 0);
  EXPECT_EQ(router.pending(survivor), 0u);
  EXPECT_TRUE(router.take_sendable(survivor).empty());
  EXPECT_TRUE(router.idle());
  // A later answer for the same token is swallowed as a duplicate.
  EXPECT_TRUE(router.on_child_line(survivor, fake_result(token, 0)).empty());
  EXPECT_EQ(router.stats().emitted, 1u);
  EXPECT_FALSE(router.any_error());
}

// ------------------------------------------------------ admission control

TEST(ShardRouter, AdmissionControlShedsWithDelayedTagAndContiguousSeq) {
  RouterOptions options;
  options.shards = 1;
  options.window = 8;
  options.max_queue_depth = 2;
  ShardRouter router(options);

  auto prioritized = [](const std::string& id, int k, const char* band) {
    return "{\"id\":\"" + id + "\",\"gen\":\"qkp:30-25-" + std::to_string(k) +
           "\",\"iterations\":2,\"sweeps\":20,\"priority\":\"" + band + "\"}";
  };
  EXPECT_TRUE(router.accept_line(prioritized("lo", 1, "low"), 1).empty());
  EXPECT_TRUE(router.accept_line(prioritized("n1", 2, "normal"), 2).empty());

  // Backlog full; a high-priority arrival displaces the low-priority
  // victim, which WAS accepted and therefore keeps its seq.
  const auto displaced = router.accept_line(prioritized("hi", 3, "high"), 3);
  ASSERT_EQ(displaced.size(), 1u);
  const auto victim = util::parse_json(displaced[0]);
  EXPECT_EQ(victim.find("id")->as_string(), "lo");
  EXPECT_TRUE(victim.find("delayed")->as_bool());
  EXPECT_NE(victim.find("error")->as_string().find("admission control"),
            std::string::npos);
  EXPECT_EQ(victim.find("seq")->as_int(), 0);
  EXPECT_EQ(router.stats().sheds, 1u);
  EXPECT_EQ(router.outstanding(), 2u);

  // Backlog full again; a low-priority arrival outranks nobody, so IT is
  // shed — never accepted, so no ordinal and no seq.
  const auto bounced = router.accept_line(prioritized("lo2", 4, "low"), 4);
  ASSERT_EQ(bounced.size(), 1u);
  const auto shed = util::parse_json(bounced[0]);
  EXPECT_EQ(shed.find("id")->as_string(), "lo2");
  EXPECT_TRUE(shed.find("delayed")->as_bool());
  EXPECT_EQ(shed.find("seq"), nullptr);
  EXPECT_EQ(router.stats().sheds, 2u);

  // The surviving jobs complete with the next seqs: the client still sees
  // the contiguous global range 0..2 across shed and completed lines.
  const auto sent = router.take_sendable(0);
  ASSERT_EQ(sent.size(), 2u);
  std::set<std::int64_t> seqs{0};
  std::int64_t shard_seq = 0;
  for (const auto& line : sent) {
    const auto out =
        router.on_child_line(0, fake_result(token_of(line), shard_seq++));
    ASSERT_EQ(out.size(), 1u);
    seqs.insert(util::parse_json(out[0]).find("seq")->as_int());
  }
  for (std::int64_t s = 0; s < 3; ++s) EXPECT_TRUE(seqs.contains(s));
  EXPECT_TRUE(router.idle());
  EXPECT_TRUE(router.any_error());
}

TEST(ShardRouter, AdmissionControlNeverShedsInflightJobs) {
  RouterOptions options;
  options.shards = 1;
  options.window = 1;
  options.max_queue_depth = 1;
  ShardRouter router(options);
  const auto low = R"({"id":"lo","gen":"qkp:30-25-1","iterations":2,)"
                   R"("sweeps":20,"priority":"low"})";
  EXPECT_TRUE(router.accept_line(low, 1).empty());
  const auto sent = router.take_sendable(0);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_TRUE(router.accept_line(job_line("n1", 2, 1), 2).empty());
  ASSERT_EQ(router.pending(0), 1u);

  // Backlog full. The low-priority job ranks lowest but is in flight, so
  // it is untouchable; the pending job does not rank below the incoming
  // normal-priority arrival, which is shed instead.
  const auto out = router.accept_line(job_line("n2", 3, 1), 3);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(util::parse_json(out[0]).find("id")->as_string(), "n2");
  EXPECT_TRUE(util::parse_json(out[0]).find("delayed")->as_bool());
  EXPECT_EQ(router.outstanding(), 2u);

  const auto done = router.on_child_line(0, fake_result(token_of(sent[0]), 0));
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(util::parse_json(done[0]).find("id")->as_string(), "lo");
  const auto next = router.take_sendable(0);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(router.on_child_line(0, fake_result(token_of(next[0]), 1)).size(),
            1u);
  EXPECT_TRUE(router.idle());
}

// ----------------------------------------------------------- ProcessChild

TEST(ProcessChild, EchoesLinesAndDrainsOnStdinClose) {
  ProcessChild cat({"/bin/cat"});
  cat.send_line("hello");
  cat.send_line("world");
  ASSERT_TRUE(cat.pump_writes());
  std::vector<std::string> lines;
  for (int spin = 0; spin < 2000 && lines.size() < 2; ++spin) {
    for (auto& l : cat.read_lines()) lines.push_back(l);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "hello");
  EXPECT_EQ(lines[1], "world");

  cat.shutdown_input();
  for (int spin = 0; spin < 2000 && !cat.eof(); ++spin) {
    cat.read_lines();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(cat.eof());
  for (int spin = 0; spin < 2000 && cat.running(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(cat.running());
  EXPECT_EQ(cat.exit_status(), 0);
}

TEST(ProcessChild, KillLeadsToEofAndNonRunning) {
  ProcessChild cat({"/bin/cat"});
  ASSERT_TRUE(cat.running());
  cat.kill(SIGKILL);
  for (int spin = 0; spin < 2000 && (cat.running() || !cat.eof()); ++spin) {
    cat.read_lines();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(cat.eof());
  EXPECT_FALSE(cat.running());
}

TEST(ProcessChild, ExecFailureSurfacesAsExit127) {
  ProcessChild nope({"/definitely/not/a/binary"});
  for (int spin = 0; spin < 2000 && nope.running(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(nope.running());
  ASSERT_TRUE(WIFEXITED(nope.exit_status()));
  EXPECT_EQ(WEXITSTATUS(nope.exit_status()), 127);
}

// --------------------------------------------- end-to-end with saim_serve

const char* serve_bin() {
#ifdef SAIM_SERVE_BIN
  return SAIM_SERVE_BIN;
#else
  return nullptr;
#endif
}

/// Spawns one saim_serve child per router slot under a Supervisor with
/// respawn and pings off: a dead shard stays dead, so the
/// router's failover path alone must keep every job.
std::unique_ptr<Supervisor> spawn_fleet(ShardRouter& router) {
  SupervisorOptions options;
  options.local_argv = {serve_bin(), "--stream", "--workers", "1",
                        "--cache", "0"};
  options.respawn = false;
  options.ping_ms = 0;
  auto supervisor = std::make_unique<Supervisor>(router, options);
  for (std::size_t s = 0; s < router.shard_slots(); ++s) {
    supervisor->attach_local(s);
  }
  return supervisor;
}

/// Pumps until the router is idle or ~20s pass; returns emitted lines.
std::vector<std::string> pump_to_idle(ShardRouter& router,
                                      Supervisor& supervisor) {
  std::vector<std::string> out;
  for (int spin = 0; spin < 10000 && !router.idle(); ++spin) {
    for (auto& l : supervisor.pump(2)) out.push_back(std::move(l));
  }
  return out;
}

TEST(ShardFleet, MatchesAcceptedJobContractEndToEnd) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  ShardRouter router(two_shards());
  const auto fleet = spawn_fleet(router);
  std::size_t line_no = 0;
  std::vector<std::string> out;
  for (int k = 1; k <= 3; ++k) {
    for (int j = 0; j < 2; ++j) {
      const auto id = "k" + std::to_string(k) + "j" + std::to_string(j);
      for (auto& l : router.accept_line(
               "{\"id\":\"" + id + "\",\"gen\":\"qkp:30-25-" +
                   std::to_string(k) + "\",\"iterations\":3,\"sweeps\":50," +
                   "\"seed\":" + std::to_string(j + 1) + "}",
               ++line_no)) {
        out.push_back(std::move(l));
      }
    }
  }
  // One rejected line: must produce an error with NO seq and skew nothing.
  for (auto& l : router.accept_line(R"({"id":"bad","gen":"zzz"})", ++line_no)) {
    out.push_back(std::move(l));
  }
  for (auto& l : pump_to_idle(router, *fleet)) out.push_back(std::move(l));

  ASSERT_EQ(out.size(), 7u);
  std::set<std::string> ids;
  std::set<std::int64_t> seqs;
  for (const auto& line : out) {
    const auto v = util::parse_json(line);
    ids.insert(v.find("id")->as_string());
    if (v.find("id")->as_string() == "bad") {
      EXPECT_NE(v.find("error"), nullptr);
      EXPECT_EQ(v.find("seq"), nullptr);
    } else {
      EXPECT_EQ(v.find("status")->as_string(), "completed");
      seqs.insert(v.find("seq")->as_int());
    }
  }
  EXPECT_EQ(ids.size(), 7u);
  for (std::int64_t s = 0; s < 6; ++s) EXPECT_TRUE(seqs.contains(s));
}

TEST(ShardFleet, SurvivesChildKilledMidStreamWithZeroLostJobs) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  ShardRouter router(two_shards(/*window=*/4));
  const auto fleet = spawn_fleet(router);
  // Enough distinct instances that both shards own several jobs, with
  // budgets big enough that the victim cannot finish before the kill.
  std::size_t line_no = 0;
  for (int k = 1; k <= 6; ++k) {
    for (int j = 0; j < 2; ++j) {
      router.accept_line(
          "{\"id\":\"k" + std::to_string(k) + "j" + std::to_string(j) +
              "\",\"gen\":\"qkp:60-25-" + std::to_string(k) +
              "\",\"iterations\":25,\"sweeps\":300,\"seed\":" +
              std::to_string(j + 1) + "}",
          ++line_no);
    }
  }
  ASSERT_GT(router.pending(0), 0u);
  ASSERT_GT(router.pending(1), 0u);

  std::vector<std::string> out;
  // Let the fleet pick up work and prove it is mid-stream (some results
  // already emitted), then kill whichever shard has more unanswered jobs
  // — in flight and all.
  for (int spin = 0; spin < 5000 && out.size() < 2; ++spin) {
    for (auto& l : fleet->pump(2)) out.push_back(std::move(l));
  }
  ASSERT_GE(out.size(), 2u);
  const std::size_t victim =
      router.inflight(0) + router.pending(0) >=
              router.inflight(1) + router.pending(1)
          ? 0
          : 1;
  ASSERT_GT(router.inflight(victim) + router.pending(victim), 0u);
  fleet->endpoint(victim)->terminate();  // SIGKILL via the endpoint

  for (auto& l : pump_to_idle(router, *fleet)) out.push_back(std::move(l));

  // Exactly one line per accepted job, global seq contiguous, no errors.
  ASSERT_EQ(out.size(), 12u);
  std::set<std::string> ids;
  std::set<std::int64_t> seqs;
  for (const auto& line : out) {
    const auto v = util::parse_json(line);
    ids.insert(v.find("id")->as_string());
    EXPECT_EQ(v.find("error"), nullptr) << line;
    ASSERT_NE(v.find("seq"), nullptr) << line;
    seqs.insert(v.find("seq")->as_int());
  }
  EXPECT_EQ(ids.size(), 12u);
  for (std::int64_t s = 0; s < 12; ++s) EXPECT_TRUE(seqs.contains(s));
  EXPECT_FALSE(router.alive(victim));
  EXPECT_GT(router.stats().requeued, 0u);
  EXPECT_FALSE(router.any_error());
}

TEST(ShardFleet, ServeAnswersPingMidStreamAndSkipsSeqForRejects) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  // Drive ONE saim_serve directly to pin the protocol contract the
  // router builds on (ISSUE 4 satellite: rejected lines must not consume
  // completion-order sequence numbers).
  ProcessChild serve(std::vector<std::string>{serve_bin(), "--stream",
                                              "--workers", "1"});
  serve.send_line(R"({"id":"good1","gen":"qkp:30-25-1","iterations":2,"sweeps":20})");
  serve.send_line(R"({"id":"bad","gen":"qkp:30-25-1","typo_field":1})");
  serve.send_line(R"({"cmd":"ping","id":"hb"})");
  serve.send_line(R"({"id":"good2","gen":"qkp:30-25-2","iterations":2,"sweeps":20})");
  serve.send_line(R"({"cmd":"drain","id":"barrier"})");
  ASSERT_TRUE(serve.pump_writes());
  serve.shutdown_input();

  std::vector<std::string> lines;
  for (int spin = 0; spin < 10000 && !serve.eof(); ++spin) {
    for (auto& l : serve.read_lines()) lines.push_back(std::move(l));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& l : serve.read_lines()) lines.push_back(std::move(l));

  ASSERT_EQ(lines.size(), 5u);
  std::map<std::string, util::JsonValue> by_id;
  std::vector<std::string> order;
  for (const auto& line : lines) {
    auto v = util::parse_json(line);
    order.push_back(v.find("id")->as_string());
    by_id.emplace(v.find("id")->as_string(), std::move(v));
  }
  EXPECT_TRUE(by_id.at("hb").find("pong")->as_bool());
  EXPECT_EQ(by_id.at("hb").find("seq"), nullptr);
  EXPECT_NE(by_id.at("bad").find("error"), nullptr);
  EXPECT_EQ(by_id.at("bad").find("seq"), nullptr) << "rejected lines must "
                                                     "not consume seq";
  std::set<std::int64_t> seqs{by_id.at("good1").find("seq")->as_int(),
                              by_id.at("good2").find("seq")->as_int()};
  EXPECT_TRUE(seqs.contains(0));
  EXPECT_TRUE(seqs.contains(1));
  EXPECT_TRUE(by_id.at("barrier").find("drained")->as_bool());
  // The drain barrier acknowledges only after both accepted jobs emitted.
  EXPECT_EQ(order.back(), "barrier");
}

}  // namespace
}  // namespace saim::service
