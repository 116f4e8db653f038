#include "service/supervisor.hpp"

#include <sys/wait.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <utility>

#include "service/service_stats.hpp"
#include "util/jsonl.hpp"
#include "util/logging.hpp"

namespace saim::service {

namespace {

using Clock = std::chrono::steady_clock;

void append(std::vector<std::string>* out, std::vector<std::string> lines) {
  out->insert(out->end(), std::make_move_iterator(lines.begin()),
              std::make_move_iterator(lines.end()));
}

}  // namespace

Supervisor::Supervisor(ShardRouter& router, SupervisorOptions options)
    : router_(router), options_(std::move(options)),
      last_ping_(Clock::now()) {
  slots_.resize(router_.shard_slots());
}

Supervisor::~Supervisor() = default;

void Supervisor::ensure_slot(std::size_t slot) {
  if (slot >= slots_.size()) slots_.resize(slot + 1);
}

void Supervisor::attach_local(std::size_t slot) {
  thread_checker_.assert_current_thread();
  if (slot >= router_.shard_slots()) {
    throw std::logic_error("Supervisor: slot beyond the router's shards");
  }
  ensure_slot(slot);
  Slot& s = slots_[slot];
  if (s.attached) throw std::logic_error("Supervisor: slot already attached");
  s.endpoint = std::make_unique<ProcessChild>(options_.local_argv);
  s.attached = true;
  s.want = true;
  s.spawned_at = Clock::now();
}

ProcessChild* Supervisor::endpoint(std::size_t s) const {
  return s < slots_.size() ? slots_[s].endpoint.get() : nullptr;
}

std::size_t Supervisor::desired_locals() const {
  std::size_t count = 0;
  for (const Slot& s : slots_) {
    if (s.attached && s.want) ++count;
  }
  return count;
}

std::vector<std::string> Supervisor::pump(int max_wait_ms) {
  thread_checker_.assert_current_thread();
  std::vector<std::string> out;
  std::swap(out, deferred_out_);
  const auto now = Clock::now();

  // Respawns that have served their backoff.
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].respawn_pending && now >= slots_[s].respawn_at) {
      try_respawn(s, &out);
    }
  }

  // Send: fill each live shard's window; keep flushing retiring shards
  // so their farewell control lines leave the user-space buffer, then
  // half-close them.
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    if (!slot.endpoint) continue;
    if (slot.retiring) {
      slot.endpoint->pump_writes();
      if (slot.endpoint->outbound_bytes() == 0) {
        slot.endpoint->shutdown_input();
      }
      if (now >= slot.retire_deadline) {
        // Wedged retiree (not reading, not exiting): it already left the
        // ring and its jobs were requeued, so cut it loose — once; its
        // EOF is what wakes the loop next.
        slot.endpoint->terminate();
        slot.retire_deadline = Clock::time_point::max();
      }
      continue;
    }
    if (!router_.alive(s)) continue;
    for (auto& line : router_.take_sendable(s)) slot.endpoint->send_line(line);
    slot.endpoint->pump_writes();
  }

  // Wait for output anywhere (live or retiring), room on a full pipe,
  // a caller's fd or the next deadline — not at all with lines to return.
  watch_endpoints();
  loop_.run_once(out.empty() ? wait_ms(max_wait_ms) : 0);

  // Read everyone — retiring shards included, so results they computed
  // before departure are harvested, not recomputed. Deaths are declared
  // only at EOF (flushed results are never discarded).
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    if (!slot.endpoint) continue;
    for (const auto& line : slot.endpoint->read_lines()) {
      append(&out, router_.on_child_line(s, line));
    }
    if (const auto stats_json = router_.take_stats_export(s)) {
      // Deliver to the oldest aggregation still waiting on this shard.
      for (auto& probe : stats_probes_) {
        if (probe.waiting.erase(s) > 0) {
          probe.replies[s] = *stats_json;
          break;
        }
      }
    }
    if (slot.endpoint->eof()) {
      if (slot.retiring) {
        slot.endpoint->reap();
        slot.endpoint.reset();
        slot.retiring = false;  // retirement complete
      } else {
        on_death(s, &out);
      }
    }
  }

  send_health_pings();
  advance_stats_probes(&out);
  // Endpoints that died or retired above closed their fds: deregister
  // them now, before the caller can open an fd that reuses a number.
  watch_endpoints();
  return out;
}

void Supervisor::request_fleet_stats(const std::string& reply_id) {
  thread_checker_.assert_current_thread();
  StatsProbe probe;
  probe.reply_id = reply_id;
  probe.deadline = Clock::now() + std::chrono::milliseconds(2000);
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (!slots_[s].endpoint || slots_[s].retiring || !router_.alive(s)) {
      continue;
    }
    slots_[s].endpoint->send_line(R"({"cmd":"stats","id":"_stats)" +
                                  std::to_string(probe_counter_++) + "\"}");
    slots_[s].endpoint->pump_writes();
    probe.waiting.insert(s);
  }
  stats_probes_.push_back(std::move(probe));
}

void Supervisor::advance_stats_probes(std::vector<std::string>* out) {
  if (stats_probes_.empty()) return;
  const auto now = Clock::now();
  for (auto it = stats_probes_.begin(); it != stats_probes_.end();) {
    // Emit when complete — or at the deadline with whatever arrived: a
    // wedged shard must not make the whole fleet unobservable.
    if (it->waiting.empty() || now >= it->deadline) {
      out->push_back(fleet_stats_line(*it));
      it = stats_probes_.erase(it);
    } else {
      ++it;
    }
  }
}

std::string Supervisor::fleet_stats_line(const StatsProbe& probe) const {
  const ShardRouter::Stats& rs = router_.stats();

  util::JsonWriter router_json;
  router_json.field("accepted", rs.accepted)
      .field("rejected", rs.rejected)
      .field("emitted", rs.emitted)
      .field("requeued", rs.requeued)
      .field("orphaned", rs.orphaned)
      .field("sheds", rs.sheds)
      .field("outstanding", static_cast<std::uint64_t>(router_.outstanding()));

  util::JsonWriter sup;
  sup.field("respawns", stats_.respawns)
      .field("respawn_failures", stats_.respawn_failures)
      .field("reshards", stats_.reshards)
      .field("retired", stats_.retired)
      .field("unresponsive_kills", stats_.unresponsive_kills);

  std::string shards = "[";
  for (std::size_t s = 0; s < router_.shard_slots(); ++s) {
    if (s > 0) shards += ",";
    util::JsonWriter shard;
    shard.field("shard", static_cast<std::uint64_t>(s))
        .field("alive", router_.alive(s))
        .field("restarts",
               s < slots_.size() ? slots_[s].restarts : 0)
        .field("routed", s < rs.routed_per_shard.size()
                             ? rs.routed_per_shard[s]
                             : 0)
        .field("queue_depth", static_cast<std::uint64_t>(router_.pending(s)))
        .field("inflight", static_cast<std::uint64_t>(router_.inflight(s)))
        .raw_field("latency",
                   latency_quantiles_json(router_.latency_snapshot(s)));
    const auto reply = probe.replies.find(s);
    shard.raw_field("service",
                    reply != probe.replies.end() ? reply->second : "null");
    shards += shard.str();
  }
  shards += "]";

  util::JsonWriter fleet;
  fleet
      .field("live_shards", static_cast<std::uint64_t>(router_.live_shards()))
      .field("shard_slots", static_cast<std::uint64_t>(router_.shard_slots()))
      .raw_field("router", router_json.str())
      .raw_field("supervisor", sup.str())
      .raw_field("shards", shards);

  util::JsonWriter line;
  line.field("id", probe.reply_id).raw_field("fleet", fleet.str());
  return line.str();
}

void Supervisor::on_death(std::size_t s, std::vector<std::string>* out) {
  Slot& slot = slots_[s];
  slot.endpoint->reap();
  // An exec failure (bad --serve path after a respawn) deserves a loud,
  // specific note — it looks like an instant crash otherwise.
  if (const int status = slot.endpoint->exit_status();
      WIFEXITED(status) && WEXITSTATUS(status) == 127) {
    util::log_error() << "shard " << s << " could not exec its saim_serve";
  }
  slot.endpoint.reset();
  slot.ping_outstanding = false;
  slot.missed_pongs = 0;

  const auto now = Clock::now();
  if (now - slot.spawned_at >=
      std::chrono::milliseconds(options_.stable_ms)) {
    slot.restarts = 0;  // it earned its budget back before dying
  }

  const bool will_respawn = slot.want && options_.respawn &&
                            slot.restarts < options_.max_restarts;
  if (will_respawn) {
    if (router_.alive(s) && router_.live_shards() == 1) {
      // Sole shard: nowhere to fail over to. Hold its jobs on its own
      // pending queue (ring intact) and replay into the replacement —
      // nothing orphans just because the fleet momentarily has no
      // member.
      router_.requeue_inflight(s);
    } else if (router_.alive(s)) {
      append(out, router_.on_child_down(s));  // PR 4 failover first
    }
    const int backoff = std::min(
        options_.backoff_max_ms,
        options_.backoff_initial_ms << std::min(slot.restarts, 20));
    slot.respawn_pending = true;
    slot.respawn_at = now + std::chrono::milliseconds(backoff);
    util::log_warn() << "shard " << s << " down, respawning in " << backoff
                     << " ms (attempt " << slot.restarts + 1 << "/"
                     << options_.max_restarts << ")";
    return;
  }

  // Dead for good: respawn disabled or budget exhausted.
  if (router_.alive(s)) append(out, router_.on_child_down(s));
  if (options_.respawn && slot.want) {
    ++stats_.respawn_failures;
    util::log_error() << "shard " << s << " abandoned after " << slot.restarts
                      << " crashes";
  }
  slot.want = false;
  slot.respawn_pending = false;
}

bool Supervisor::try_respawn(std::size_t s, std::vector<std::string>* out) {
  Slot& slot = slots_[s];
  slot.respawn_pending = false;
  if (!slot.want) return false;
  try {
    slot.endpoint = std::make_unique<ProcessChild>(options_.local_argv);
  } catch (const std::exception&) {
    // fork/pipe failure (fd or process exhaustion): retry on backoff
    // like a crash, give up on the same budget.
    ++slot.restarts;
    if (slot.restarts >= options_.max_restarts) {
      if (router_.alive(s)) append(out, router_.on_child_down(s));
      slot.want = false;
      ++stats_.respawn_failures;
      return false;
    }
    const int backoff = std::min(
        options_.backoff_max_ms,
        options_.backoff_initial_ms << std::min(slot.restarts, 20));
    slot.respawn_pending = true;
    slot.respawn_at = Clock::now() + std::chrono::milliseconds(backoff);
    return false;
  }
  slot.spawned_at = Clock::now();
  ++slot.restarts;
  ++stats_.respawns;
  util::log_info() << "shard " << s << " respawned";
  if (!router_.alive(s)) router_.revive_shard(s);  // old keyslice returns
  return true;
}

std::size_t Supervisor::reshard(std::size_t target_locals) {
  thread_checker_.assert_current_thread();
  // The fleet keeps at least one shard: an empty ring rejects every job.
  target_locals = std::max<std::size_t>(1, target_locals);
  const std::size_t current = desired_locals();
  if (target_locals == current) return current;
  ++stats_.reshards;

  if (target_locals > current) {
    std::size_t needed = target_locals - current;
    std::size_t failed_spawns = 0;
    // Recycle dead slots first: revive_shard restores their exact
    // old keyslice, so a shrink-then-grow round trip moves keys back
    // where their caches were hot.
    for (std::size_t s = 0; s < slots_.size() && needed > 0; ++s) {
      Slot& slot = slots_[s];
      if (!slot.attached || slot.want || slot.retiring || slot.endpoint) {
        continue;
      }
      try {
        slot.endpoint = std::make_unique<ProcessChild>(options_.local_argv);
      } catch (const std::exception&) {
        continue;  // try another slot; brand-new slots below may work
      }
      slot.want = true;
      slot.restarts = 0;
      slot.respawn_pending = false;
      slot.spawned_at = Clock::now();
      if (!router_.alive(s)) router_.revive_shard(s);
      --needed;
    }
    while (needed > 0) {
      // Spawn BEFORE touching the ring: a fork/pipe failure must not
      // leave a live ring slot with no child behind it (jobs hashing
      // there would wait forever).
      std::unique_ptr<ProcessChild> endpoint;
      try {
        endpoint = std::make_unique<ProcessChild>(options_.local_argv);
      } catch (const std::exception&) {
        ++failed_spawns;
        break;  // partial grow; the reply reports the applied count
      }
      const std::size_t s = router_.add_shard();
      ensure_slot(s);
      Slot& slot = slots_[s];
      slot.endpoint = std::move(endpoint);
      slot.attached = true;
      slot.want = true;
      slot.spawned_at = Clock::now();
      --needed;
    }
    if (failed_spawns > 0) {
      util::log_warn() << "reshard grow stopped short (spawn failed)";
    }
    return desired_locals();
  }

  // Shrink: retire the highest-indexed members. Requeue each one's
  // unanswered jobs via the failover path and let it drain out through a
  // polite shutdown.
  std::size_t to_remove = current - target_locals;
  for (std::size_t i = slots_.size(); i-- > 0 && to_remove > 0;) {
    Slot& slot = slots_[i];
    if (!slot.attached || !slot.want || slot.retiring) continue;
    slot.want = false;
    slot.respawn_pending = false;
    ++stats_.retired;
    --to_remove;
    if (slot.endpoint) {
      slot.endpoint->send_line(R"({"cmd":"shutdown","id":"_retire"})");
      slot.endpoint->pump_writes();
      slot.retiring = true;
      slot.retire_deadline =
          Clock::now() +
          std::chrono::milliseconds(options_.retire_grace_ms);
    }
    if (router_.alive(i)) {
      append(&deferred_out_, router_.on_child_down(i));
    }
  }
  return desired_locals();
}

void Supervisor::send_health_pings() {
  if (options_.ping_ms <= 0) return;
  const auto now = Clock::now();
  if (now - last_ping_ < std::chrono::milliseconds(options_.ping_ms)) return;
  last_ping_ = now;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    if (!slot.endpoint || slot.retiring || !router_.alive(s)) continue;
    if (router_.take_pong(s)) {
      slot.missed_pongs = 0;
    } else if (slot.ping_outstanding && ++slot.missed_pongs >= 5) {
      // Wedged: terminate; EOF then routes into the death/respawn path.
      slot.endpoint->terminate();
      slot.ping_outstanding = false;
      ++stats_.unresponsive_kills;
      continue;
    }
    slot.endpoint->send_line(R"({"cmd":"ping"})");
    slot.ping_outstanding = true;
  }
}

void Supervisor::shutdown_fleet(int grace_ms) {
  thread_checker_.assert_current_thread();
  for (Slot& slot : slots_) {
    slot.want = false;
    slot.respawn_pending = false;
    if (slot.endpoint && !slot.endpoint->eof()) {
      slot.endpoint->send_line(R"({"cmd":"shutdown","id":"_bye"})");
      slot.endpoint->pump_writes();
    }
  }
  const auto deadline = Clock::now() + std::chrono::milliseconds(grace_ms);
  for (;;) {
    bool open = false;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      Slot& slot = slots_[s];
      if (!slot.endpoint) continue;
      if (!slot.endpoint->eof()) {
        slot.endpoint->pump_writes();
        if (slot.endpoint->outbound_bytes() == 0) {
          slot.endpoint->shutdown_input();
        }
        // Tail results still count: feed them through the router so a
        // drain initiated right before teardown loses nothing.
        for (const auto& line : slot.endpoint->read_lines()) {
          append(&deferred_out_, router_.on_child_line(s, line));
        }
        if (!slot.endpoint->eof()) {
          open = true;
          continue;
        }
      }
      slot.endpoint->reap();
      slot.endpoint.reset();
    }
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (!open || left.count() <= 0) break;
    watch_endpoints();
    loop_.run_once(static_cast<int>(left.count()));
  }
  for (Slot& slot : slots_) {
    if (slot.endpoint) {
      slot.endpoint->terminate();  // overstayed the grace period
      slot.endpoint.reset();       // dtor reaps
    }
  }
  watch_endpoints();
}

void Supervisor::watch_endpoints() {
  std::map<int, std::uint32_t> want;
  for (const Slot& slot : slots_) {
    const ProcessChild* endpoint = slot.endpoint.get();
    if (!endpoint) continue;
    if (!endpoint->eof() && endpoint->read_fd() >= 0) {
      want[endpoint->read_fd()] |= net::EventLoop::kRead;
    }
    if (endpoint->outbound_bytes() > 0 && endpoint->write_fd() >= 0) {
      want[endpoint->write_fd()] |= net::EventLoop::kWrite;
    }
  }
  for (const auto& [fd, interest] : watched_) {
    if (!want.contains(fd)) loop_.remove_fd(fd);
  }
  for (const auto& [fd, interest] : want) {
    const auto it = watched_.find(fd);
    if (it == watched_.end() || it->second != interest) {
      loop_.add_fd(fd, interest, [](std::uint32_t) {});
    }
  }
  watched_ = std::move(want);
}

int Supervisor::wait_ms(int max_wait_ms) const {
  const auto now = Clock::now();
  auto next = Clock::time_point::max();
  for (const Slot& slot : slots_) {
    if (slot.respawn_pending) next = std::min(next, slot.respawn_at);
    if (slot.retiring && slot.endpoint) {
      next = std::min(next, slot.retire_deadline);
    }
  }
  for (const StatsProbe& probe : stats_probes_) {
    next = std::min(next, probe.deadline);
  }
  if (options_.ping_ms > 0) {
    next = std::min(next,
                    last_ping_ + std::chrono::milliseconds(options_.ping_ms));
  }
  if (next == Clock::time_point::max()) return max_wait_ms;
  // Rounded up: waking a fraction of a millisecond early would find the
  // deadline not yet due and spin through zero-length waits.
  const auto until = std::max<std::int64_t>(
      0, std::chrono::ceil<std::chrono::milliseconds>(next - now).count());
  if (max_wait_ms >= 0 && max_wait_ms < until) return max_wait_ms;
  return static_cast<int>(std::min<std::int64_t>(until, INT32_MAX));
}

}  // namespace saim::service
