// Tests for the self-healing fleet layer (ISSUE 5): router support for
// shard revival / growth / in-place requeue, the Supervisor's respawn
// with ring rejoin (SIGKILL mid-stream -> exactly-once, contiguous
// global seq), live resharding under load (2 -> 4 -> 1 with zero lost
// jobs), graceful fleet teardown without zombie processes, and pump's
// wait, which sleeps until a registered fd or the fleet's next deadline.
#include <gtest/gtest.h>

#include <errno.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "problems/fingerprint.hpp"
#include "problems/qkp.hpp"
#include "service/process_child.hpp"
#include "service/request_builders.hpp"
#include "service/shard_router.hpp"
#include "service/supervisor.hpp"
#include "util/jsonl.hpp"

namespace saim::service {
namespace {

// ------------------------------------------- router units (no processes)

std::string job_line(const std::string& id, int k, std::uint64_t seed) {
  return "{\"id\":\"" + id + "\",\"gen\":\"qkp:30-25-" + std::to_string(k) +
         "\",\"iterations\":2,\"sweeps\":20,\"seed\":" + std::to_string(seed) +
         "}";
}

TEST(ShardRouterFleet, ReviveRestoresTheExactKeyslice) {
  RouterOptions options;
  options.shards = 3;
  ShardRouter router(options);
  // Owners before the crash, over many fingerprints.
  std::map<std::uint64_t, std::size_t> before;
  for (std::uint64_t k = 1; k <= 512; ++k) {
    const std::uint64_t fp = k * 0x9e3779b97f4a7c15ULL;
    before[fp] = router.owner_of(fp);
  }
  (void)router.on_child_down(1);
  EXPECT_EQ(router.live_shards(), 2u);
  router.revive_shard(1);
  EXPECT_EQ(router.live_shards(), 3u);
  EXPECT_TRUE(router.alive(1));
  for (const auto& [fp, owner] : before) {
    EXPECT_EQ(router.owner_of(fp), owner)
        << "revival must restore the pre-crash key layout exactly";
  }
}

TEST(ShardRouterFleet, AddShardExtendsTheRingAndTakesTraffic) {
  RouterOptions options;
  options.shards = 1;
  ShardRouter router(options);
  const std::size_t added = router.add_shard();
  EXPECT_EQ(added, 1u);
  EXPECT_EQ(router.live_shards(), 2u);
  EXPECT_EQ(router.shard_slots(), 2u);
  // With 64 vnodes each, the new shard owns a real share of keys.
  std::size_t moved = 0;
  for (std::uint64_t k = 1; k <= 512; ++k) {
    if (router.owner_of(k * 0x9e3779b97f4a7c15ULL) == added) ++moved;
  }
  EXPECT_GT(moved, 0u);
  // And jobs route to it end-to-end.
  for (int k = 1; k <= 8; ++k) {
    router.accept_line(job_line("j" + std::to_string(k), k, 1),
                       static_cast<std::size_t>(k));
  }
  EXPECT_GT(router.pending(0) + router.pending(1), 0u);
}

TEST(ShardRouterFleet, RequeueInflightHoldsJobsInAcceptOrder) {
  RouterOptions options;
  options.shards = 1;
  options.window = 8;
  ShardRouter router(options);
  for (int j = 0; j < 4; ++j) {
    router.accept_line(job_line("j" + std::to_string(j), 1, j + 1),
                       static_cast<std::size_t>(j + 1));
  }
  const auto sent = router.take_sendable(0);
  ASSERT_EQ(sent.size(), 4u);
  EXPECT_EQ(router.inflight(0), 4u);

  router.requeue_inflight(0);  // the sole-shard crash path
  EXPECT_EQ(router.inflight(0), 0u);
  EXPECT_EQ(router.pending(0), 4u);
  EXPECT_EQ(router.stats().requeued, 4u);
  EXPECT_TRUE(router.alive(0)) << "ring membership must be untouched";
  EXPECT_EQ(router.outstanding(), 4u) << "nothing may orphan";

  // Replay happens in the original accept order.
  const auto replay = router.take_sendable(0);
  ASSERT_EQ(replay.size(), 4u);
  for (int j = 0; j < 4; ++j) {
    EXPECT_NE(replay[j].find("\"id\":\"_r" + std::to_string(j) + "\""),
              std::string::npos)
        << replay[j];
  }
}

TEST(ShardRouterFleet, ShardFarewellsAreSwallowed) {
  RouterOptions options;
  options.shards = 2;
  ShardRouter router(options);
  // A retiring or departing shard's {"bye":true} is fleet-internal: the
  // front door answers its own shutdown line.
  EXPECT_TRUE(router.on_child_line(0, R"({"id":"_bye","bye":true})").empty());
  EXPECT_FALSE(router.any_error());
}

TEST(ShardRouterFleet, FleetManagementCmdsAreRejectedByTheRouter) {
  RouterOptions options;
  options.shards = 1;
  ShardRouter router(options);
  const auto out =
      router.accept_line(R"({"cmd":"reshard","shards":4})", 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(util::parse_json(out[0])
                .find("error")
                ->as_string()
                .find("fleet supervisor"),
            std::string::npos);
}

// -------------------------------------------------- fleets of saim_serve

const char* serve_bin() {
#ifdef SAIM_SERVE_BIN
  return SAIM_SERVE_BIN;
#else
  return nullptr;
#endif
}

SupervisorOptions fast_supervisor_options() {
  SupervisorOptions options;
  options.local_argv = {serve_bin(), "--stream", "--workers", "1"};
  options.backoff_initial_ms = 50;
  options.backoff_max_ms = 200;
  options.ping_ms = 0;  // deterministic tests drive health explicitly
  return options;
}

/// Pumps until the router is idle (plus `extra` holds) or ~40s pass.
std::vector<std::string> pump_to_idle(
    ShardRouter& router, Supervisor& supervisor,
    const std::function<bool()>& extra = [] { return true; }) {
  std::vector<std::string> out;
  for (int spin = 0; spin < 20000 && !(router.idle() && extra()); ++spin) {
    for (auto& l : supervisor.pump(2)) out.push_back(std::move(l));
  }
  return out;
}

void feed_jobs(ShardRouter& router, std::vector<std::string>* out,
               std::size_t* line_no, int first_k, int last_k,
               std::size_t iterations, std::size_t sweeps) {
  for (int k = first_k; k <= last_k; ++k) {
    for (int j = 1; j <= 2; ++j) {
      const auto id = "k" + std::to_string(k) + "j" + std::to_string(j);
      auto emitted = router.accept_line(
          "{\"id\":\"" + id + "\",\"gen\":\"qkp:60-25-" + std::to_string(k) +
              "\",\"iterations\":" + std::to_string(iterations) +
              ",\"sweeps\":" + std::to_string(sweeps) +
              ",\"seed\":" + std::to_string(j) + "}",
          ++*line_no);
      out->insert(out->end(), emitted.begin(), emitted.end());
    }
  }
}

void expect_exactly_once(const std::vector<std::string>& out,
                         std::size_t jobs) {
  ASSERT_EQ(out.size(), jobs);
  std::set<std::string> ids;
  std::set<std::int64_t> seqs;
  for (const auto& line : out) {
    const auto v = util::parse_json(line);
    ids.insert(v.find("id")->as_string());
    EXPECT_EQ(v.find("error"), nullptr) << line;
    ASSERT_NE(v.find("seq"), nullptr) << line;
    seqs.insert(v.find("seq")->as_int());
  }
  EXPECT_EQ(ids.size(), jobs);
  for (std::size_t s = 0; s < jobs; ++s) {
    EXPECT_TRUE(seqs.contains(static_cast<std::int64_t>(s)));
  }
}

TEST(SupervisorFleet, RespawnsSigkilledShardWhichRejoinsTheRing) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  RouterOptions router_options;
  router_options.shards = 2;
  router_options.window = 4;
  ShardRouter router(router_options);
  Supervisor supervisor(router, fast_supervisor_options());
  supervisor.attach_local(0);
  supervisor.attach_local(1);

  std::vector<std::string> out;
  std::size_t line_no = 0;
  feed_jobs(router, &out, &line_no, 1, 6, 25, 300);
  ASSERT_GT(router.pending(0), 0u);
  ASSERT_GT(router.pending(1), 0u);

  // Mid-stream: at least two results out, victim still has work.
  for (int spin = 0; spin < 10000 && out.size() < 2; ++spin) {
    for (auto& l : supervisor.pump(2)) out.push_back(std::move(l));
  }
  ASSERT_GE(out.size(), 2u);
  const std::size_t victim =
      router.inflight(0) + router.pending(0) >=
              router.inflight(1) + router.pending(1)
          ? 0
          : 1;
  ASSERT_GT(router.inflight(victim) + router.pending(victim), 0u);
  supervisor.endpoint(victim)->terminate();  // SIGKILL

  for (auto& l : pump_to_idle(router, supervisor,
                              [&] { return router.live_shards() == 2; })) {
    out.push_back(std::move(l));
  }

  // Exactly one line per accepted job, contiguous global seq, no errors
  // — and the victim is back on the ring with a fresh process.
  expect_exactly_once(out, 12);
  EXPECT_TRUE(router.alive(victim));
  EXPECT_EQ(router.live_shards(), 2u);
  EXPECT_GE(supervisor.stats().respawns, 1u);
  EXPECT_GT(router.stats().requeued, 0u);
  EXPECT_FALSE(router.any_error());
  supervisor.shutdown_fleet();
}

TEST(SupervisorFleet, SoleShardCrashHoldsJobsInsteadOfOrphaning) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  RouterOptions router_options;
  router_options.shards = 1;
  router_options.window = 4;
  ShardRouter router(router_options);
  Supervisor supervisor(router, fast_supervisor_options());
  supervisor.attach_local(0);

  std::vector<std::string> out;
  std::size_t line_no = 0;
  feed_jobs(router, &out, &line_no, 1, 3, 25, 300);

  for (int spin = 0; spin < 10000 && out.empty(); ++spin) {
    for (auto& l : supervisor.pump(2)) out.push_back(std::move(l));
  }
  ASSERT_GT(router.outstanding(), 0u);
  supervisor.endpoint(0)->terminate();

  for (auto& l : pump_to_idle(router, supervisor)) out.push_back(std::move(l));

  // With nowhere to fail over, PR 4 would have orphaned every unanswered
  // job; the supervisor instead held them and replayed into the
  // replacement — zero errors, zero orphans.
  expect_exactly_once(out, 6);
  EXPECT_EQ(router.stats().orphaned, 0u);
  EXPECT_GT(router.stats().requeued, 0u);
  EXPECT_GE(supervisor.stats().respawns, 1u);
  EXPECT_EQ(router.live_shards(), 1u);
  supervisor.shutdown_fleet();
}

TEST(SupervisorFleet, Reshard2To4To1UnderLoadLosesNothing) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  RouterOptions router_options;
  router_options.shards = 2;
  router_options.window = 4;
  ShardRouter router(router_options);
  Supervisor supervisor(router, fast_supervisor_options());
  supervisor.attach_local(0);
  supervisor.attach_local(1);

  std::vector<std::string> out;
  std::size_t line_no = 0;
  feed_jobs(router, &out, &line_no, 1, 4, 20, 200);

  // Grow to 4 with the first wave still in flight.
  for (int spin = 0; spin < 200; ++spin) {
    for (auto& l : supervisor.pump(2)) out.push_back(std::move(l));
  }
  EXPECT_EQ(supervisor.reshard(4), 4u);
  feed_jobs(router, &out, &line_no, 5, 8, 20, 200);

  // Shrink to 1 with the second wave still in flight.
  for (int spin = 0; spin < 200; ++spin) {
    for (auto& l : supervisor.pump(2)) out.push_back(std::move(l));
  }
  EXPECT_EQ(supervisor.reshard(1), 1u);
  feed_jobs(router, &out, &line_no, 9, 10, 20, 200);

  for (auto& l : pump_to_idle(router, supervisor)) out.push_back(std::move(l));

  expect_exactly_once(out, 20);
  EXPECT_EQ(router.stats().orphaned, 0u);
  EXPECT_EQ(supervisor.stats().reshards, 2u);
  EXPECT_EQ(supervisor.stats().retired, 3u);
  EXPECT_EQ(supervisor.desired_locals(), 1u);
  EXPECT_FALSE(router.any_error());
  supervisor.shutdown_fleet();
}

TEST(SupervisorFleet, ChaosSigkillCompletesWithZeroStall) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  // When an owner is SIGKILLed mid-stream, its unanswered jobs fail over
  // to the survivor — nothing waits for the respawn. The respawn backoff
  // is set absurdly high so a single stalled job would hang the test:
  // 12/12 completing proves completion never depended on it.
  RouterOptions router_options;
  router_options.shards = 2;
  router_options.window = 4;
  ShardRouter router(router_options);
  SupervisorOptions supervisor_options = fast_supervisor_options();
  supervisor_options.backoff_initial_ms = 60000;
  supervisor_options.backoff_max_ms = 60000;
  Supervisor supervisor(router, supervisor_options);
  supervisor.attach_local(0);
  supervisor.attach_local(1);

  std::vector<std::string> out;
  std::size_t line_no = 0;
  feed_jobs(router, &out, &line_no, 1, 6, 25, 300);
  ASSERT_GT(router.pending(0), 0u);
  ASSERT_GT(router.pending(1), 0u);

  for (int spin = 0; spin < 10000 && out.size() < 2; ++spin) {
    for (auto& l : supervisor.pump(2)) out.push_back(std::move(l));
  }
  ASSERT_GE(out.size(), 2u);
  const std::size_t victim =
      router.inflight(0) + router.pending(0) >=
              router.inflight(1) + router.pending(1)
          ? 0
          : 1;
  ASSERT_GT(router.inflight(victim) + router.pending(victim), 0u);
  supervisor.endpoint(victim)->terminate();  // SIGKILL

  for (auto& l : pump_to_idle(router, supervisor)) out.push_back(std::move(l));

  expect_exactly_once(out, 12);
  EXPECT_EQ(supervisor.stats().respawns, 0u)
      << "a respawn happened: completion may have stalled on it";
  EXPECT_FALSE(router.alive(victim));
  EXPECT_EQ(router.live_shards(), 1u);
  EXPECT_EQ(router.stats().orphaned, 0u);
  EXPECT_FALSE(router.any_error());
  supervisor.shutdown_fleet();
}

TEST(SupervisorFleet, WedgedShardIsKilledByTheWatchdogAndItsJobsFailOver) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  // A SIGSTOPped shard never EOFs, so only the health watchdog can rescue
  // its jobs: 5 missed pongs, terminate, then failover and respawn.
  RouterOptions router_options;
  router_options.shards = 2;
  router_options.window = 4;
  ShardRouter router(router_options);
  SupervisorOptions supervisor_options = fast_supervisor_options();
  supervisor_options.ping_ms = 20;
  Supervisor supervisor(router, supervisor_options);
  supervisor.attach_local(0);
  supervisor.attach_local(1);

  std::vector<std::string> out;
  std::size_t line_no = 0;
  feed_jobs(router, &out, &line_no, 1, 6, 25, 300);
  ASSERT_GT(router.pending(0), 0u);
  ASSERT_GT(router.pending(1), 0u);

  for (int spin = 0; spin < 10000 && out.size() < 2; ++spin) {
    for (auto& l : supervisor.pump(2)) out.push_back(std::move(l));
  }
  ASSERT_GE(out.size(), 2u);
  const std::size_t victim =
      router.inflight(0) + router.pending(0) >=
              router.inflight(1) + router.pending(1)
          ? 0
          : 1;
  ASSERT_GT(router.inflight(victim) + router.pending(victim), 0u);
  ProcessChild* child = supervisor.endpoint(victim);
  ASSERT_NE(child, nullptr);
  const pid_t wedged = child->pid();
  ASSERT_EQ(::kill(wedged, SIGSTOP), 0);

  for (auto& l : pump_to_idle(router, supervisor)) out.push_back(std::move(l));

  expect_exactly_once(out, 12);
  EXPECT_GE(supervisor.stats().unresponsive_kills, 1u);
  EXPECT_FALSE(router.any_error());
  // Let a shard the watchdog missed exit on shutdown; a killed one is
  // already reaped, and its pid must not be signalled again.
  if (supervisor.stats().unresponsive_kills == 0) ::kill(wedged, SIGCONT);
  supervisor.shutdown_fleet();
}

TEST(SupervisorFleet, GracefulShutdownReapsEveryChild) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  RouterOptions router_options;
  router_options.shards = 2;
  ShardRouter router(router_options);
  Supervisor supervisor(router, fast_supervisor_options());
  supervisor.attach_local(0);
  supervisor.attach_local(1);

  std::vector<std::string> out;
  std::size_t line_no = 0;
  for (auto& l : router.accept_line(job_line("a", 1, 1), ++line_no)) {
    out.push_back(std::move(l));
  }
  for (auto& l : pump_to_idle(router, supervisor)) out.push_back(std::move(l));
  ASSERT_EQ(out.size(), 1u);

  std::vector<pid_t> pids;
  for (std::size_t s = 0; s < 2; ++s) {
    ProcessChild* child = supervisor.endpoint(s);
    ASSERT_NE(child, nullptr);
    pids.push_back(child->pid());
  }
  supervisor.shutdown_fleet();
  // Reaped means GONE: a zombie would still answer kill(pid, 0) with 0.
  for (const pid_t pid : pids) {
    EXPECT_EQ(::kill(pid, 0), -1);
    EXPECT_EQ(errno, ESRCH) << "child " << pid << " was not reaped";
  }
}

// ------------------------------------------------------------ fleet stats

TEST(SupervisorFleet, FleetStatsAggregatesEveryShardSnapshot) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  RouterOptions router_options;
  router_options.shards = 2;
  ShardRouter router(router_options);
  Supervisor supervisor(router, fast_supervisor_options());
  supervisor.attach_local(0);
  supervisor.attach_local(1);

  // Run real jobs through both shards so the round-trip latency
  // histograms and the children's own service counters are non-empty.
  std::vector<std::string> out;
  std::size_t line_no = 0;
  feed_jobs(router, &out, &line_no, 1, 6, 2, 30);
  for (auto& l : pump_to_idle(router, supervisor)) out.push_back(std::move(l));
  expect_exactly_once(out, 12);

  supervisor.request_fleet_stats("fs1");
  std::string fleet_line;
  for (int spin = 0; spin < 20000 && fleet_line.empty(); ++spin) {
    for (auto& l : supervisor.pump(2)) {
      if (l.find("\"fleet\"") != std::string::npos) fleet_line = std::move(l);
    }
  }
  ASSERT_FALSE(fleet_line.empty()) << "no fleet snapshot within the deadline";

  const auto v = util::parse_json(fleet_line);
  EXPECT_EQ(v.find("id")->as_string(), "fs1");
  const auto* fleet = v.find("fleet");
  ASSERT_NE(fleet, nullptr);
  EXPECT_EQ(fleet->find("live_shards")->as_int(), 2);
  EXPECT_EQ(fleet->find("shard_slots")->as_int(), 2);

  const auto* router_obj = fleet->find("router");
  ASSERT_NE(router_obj, nullptr);
  EXPECT_EQ(router_obj->find("accepted")->as_int(), 12);
  EXPECT_EQ(router_obj->find("outstanding")->as_int(), 0);

  const auto* sup = fleet->find("supervisor");
  ASSERT_NE(sup, nullptr);
  for (const char* key : {"respawns", "respawn_failures", "reshards",
                          "retired", "unresponsive_kills"}) {
    ASSERT_NE(sup->find(key), nullptr) << key;
  }

  // Per-shard: queue depth, inflight, restart count, latency quantiles,
  // and the shard's own service snapshot (both answered: no nulls).
  const auto* shards = fleet->find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->array().size(), 2u);
  std::uint64_t latency_total = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    const auto& shard = shards->array()[s];
    EXPECT_EQ(shard.find("shard")->as_int(), static_cast<std::int64_t>(s));
    EXPECT_TRUE(shard.find("alive")->as_bool());
    EXPECT_TRUE(shard.find("local")->as_bool());
    EXPECT_EQ(shard.find("restarts")->as_int(), 0);
    EXPECT_EQ(shard.find("queue_depth")->as_int(), 0);
    EXPECT_EQ(shard.find("inflight")->as_int(), 0);

    const auto* latency = shard.find("latency");
    ASSERT_NE(latency, nullptr);
    latency_total += static_cast<std::uint64_t>(
        latency->find("count")->as_int());
    EXPECT_GE(latency->find("p99_ms")->as_double(),
              latency->find("p50_ms")->as_double());

    const auto* service = shard.find("service");
    ASSERT_NE(service, nullptr);
    ASSERT_FALSE(service->is_null())
        << "both live shards must answer the stats probe";
    EXPECT_GE(service->find("completed")->as_int(), 1);
    ASSERT_NE(service->find("cache"), nullptr);
    EXPECT_NE(service->find("cache")->find("hit_rate"), nullptr);
  }
  EXPECT_EQ(latency_total, 12u)
      << "every answered job must land in some shard's latency histogram";

  supervisor.shutdown_fleet();
}

// ------------------------------------------------ the deadline-bounded wait

TEST(SupervisorLoop, ARegisteredFdEndsALongPump) {
  RouterOptions router_options;
  router_options.shards = 1;
  ShardRouter router(router_options);
  SupervisorOptions options;
  options.ping_ms = 0;  // no endpoint, no deadline: only the fd can wake it
  Supervisor supervisor(router, options);

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  bool fired = false;
  supervisor.loop().add_fd(fds[0], net::EventLoop::kRead,
                           [&](std::uint32_t) { fired = true; });
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_EQ(::write(fds[1], "x", 1), 1);
  });
  const auto start = std::chrono::steady_clock::now();
  (void)supervisor.pump(10000);
  const auto waited = std::chrono::steady_clock::now() - start;
  writer.join();
  EXPECT_TRUE(fired) << "the callback runs inside pump";
  EXPECT_LT(waited, std::chrono::seconds(1));
  supervisor.loop().remove_fd(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(SupervisorLoop, ALongPumpEndsWhenARespawnFallsDue) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  RouterOptions router_options;
  router_options.shards = 1;
  ShardRouter router(router_options);
  SupervisorOptions options = fast_supervisor_options();  // ping_ms = 0
  options.backoff_initial_ms = 100;
  Supervisor supervisor(router, options);
  supervisor.attach_local(0);

  supervisor.endpoint(0)->terminate();  // SIGKILL the only child
  // Its pipe's EOF ends the wait that observes the death.
  for (int spin = 0; spin < 100 && supervisor.endpoint(0); ++spin) {
    (void)supervisor.pump(10000);
  }
  ASSERT_EQ(supervisor.endpoint(0), nullptr);
  const auto died = std::chrono::steady_clock::now();

  // Nothing but the respawn deadline (~100 ms out) can end this wait.
  (void)supervisor.pump(10000);
  EXPECT_LT(std::chrono::steady_clock::now() - died,
            std::chrono::milliseconds(100) + std::chrono::seconds(1));

  // The replacement answers a job.
  ASSERT_TRUE(router.accept_line(job_line("after", 1, 1), 1).empty());
  const auto out = pump_to_idle(router, supervisor);
  ASSERT_EQ(out.size(), 1u);
  const auto result = util::parse_json(out[0]);
  EXPECT_EQ(result.find("id")->as_string(), "after");
  EXPECT_EQ(result.find("status")->as_string(), "completed") << out[0];
  EXPECT_EQ(supervisor.stats().respawns, 1u);
  EXPECT_TRUE(router.alive(0));
  supervisor.shutdown_fleet();
}

}  // namespace
}  // namespace saim::service
