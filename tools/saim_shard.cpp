// saim_shard — self-healing sharded serving front door.
//
// Speaks the docs/PROTOCOL.md JSONL wire format on both sides: clients
// talk to saim_shard exactly as they would to `saim_serve --stream`, and
// saim_shard runs a fleet of `saim_serve --stream` children over
// fork/exec pipes, placing each job by consistent hashing with bounded
// loads on its canonical problem fingerprint. An instance's jobs stay on
// its ring owner, whose result cache, coalescer and cached models stay
// hot for that keyslice, until the owner is backlogged; then the surplus
// spills to the next shard clockwise. The routing/remapping brain is
// service/shard_router; the transport is service/process_child (pipes);
// the self-healing layer — crash respawn with
// backoff, ring rejoin, live resharding, health probes — is
// service/supervisor.
//
// One thread runs it all: stdin and stdout are one net::Connection
// registered on the supervisor's net::EventLoop next to every shard's
// pipes and, with --metrics, the scrape endpoint, so the tool sleeps
// in Supervisor::pump until input, a shard, room on the output, a
// scrape, a signal or a fleet deadline wakes it. The fd callbacks only
// buffer lines, flush output and answer scrapes; routing and control
// lines are handled between pumps.
//
// Semantics (inherited from router + supervisor):
//   * results stream in global completion order, each accepted job tagged
//     with a global "seq" (per-shard seqs are remapped; rejected lines
//     carry none);
//   * per-shard bounded in-flight windows give backpressure to the
//     shards; intake is one global gate — input stops being read while
//     shards x window x 4 routed jobs wait for a window slot;
//   * bounded-load placement: a job goes to the first shard clockwise
//     from its key, owner first, holding fewer than
//     max(window, ceil(1.25 x mean)) queued + in-flight jobs, so a hot
//     key cannot fill the global waiting room while other shards idle;
//     failover places jobs by the same rule;
//   * --max-queue-depth sheds the lowest-priority job past the bound
//     with a "delayed"-tagged error instead of queueing unboundedly;
//   * a crashed or unresponsive shard is respawned with backoff and
//     rejoins the ring (its unanswered jobs fail over to survivors
//     first — zero lost jobs; with no survivor they are held and replay
//     into the replacement);
//   * {"cmd":"stats"} probes every live shard and answers with ONE
//     {"id":...,"fleet":{...}} snapshot line: router totals, supervisor
//     counters, and a per-shard array (queue depth, inflight, restarts,
//     round-trip latency quantiles, the shard's own service snapshot);
//     --metrics host:port additionally serves a Prometheus text-format
//     scrape of the same router/supervisor state (docs/ARCHITECTURE.md,
//     "Observability");
//   * {"cmd":"reshard","shards":N} grows/shrinks the fleet live;
//     {"cmd":"shutdown"} (or Ctrl-C / SIGTERM) stops intake, drains
//     every accepted job, answers {"bye":true}, and tears the fleet down
//     gracefully — shutdown control lines to the children, waitpid, no
//     SIGKILL unless a child overstays;
//   * on EOF the front door drains every shard before exiting.
//
// Example — 4 shards:
//   saim_shard --shards 4 < jobs.jsonl
//
// Exit status mirrors saim_serve: 0 all jobs ok, 1 any error line or
// output that closed before every result was written (`| head -1`: intake
// stops and the fleet drains), 2 bad invocation.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/stdio.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_server.hpp"
#include "service/job_parser.hpp"
#include "service/shard_router.hpp"
#include "service/supervisor.hpp"
#include "util/cli.hpp"
#include "util/jsonl.hpp"
#include "util/logging.hpp"

namespace {

using namespace saim;

volatile std::sig_atomic_t g_signal = 0;
/// The loop to wake on a signal; set before the handlers go in.
std::atomic<net::EventLoop*> g_loop{nullptr};

void on_signal(int) {
  g_signal = 1;
  if (net::EventLoop* loop = g_loop.load()) loop->wakeup();  // one write()
}

/// saim_serve is expected to sit next to saim_shard unless --serve says
/// otherwise.
std::string sibling_serve_path(const char* argv0) {
  const std::string self(argv0 ? argv0 : "");
  const auto slash = self.rfind('/');
  if (slash == std::string::npos) return "saim_serve";  // rely on PATH
  return self.substr(0, slash + 1) + "saim_serve";
}

/// Mirrors the execvp lookup so a mistyped --serve fails with one clear
/// exit-2 diagnostic instead of N silent child exec failures.
bool executable_exists(const std::string& serve) {
  if (serve.find('/') != std::string::npos) {
    return ::access(serve.c_str(), X_OK) == 0;
  }
  const char* path = std::getenv("PATH");
  if (!path) return false;
  std::string dirs(path);
  std::size_t start = 0;
  while (start <= dirs.size()) {
    const std::size_t colon = dirs.find(':', start);
    std::string dir =
        dirs.substr(start, colon == std::string::npos ? std::string::npos
                                                      : colon - start);
    if (dir.empty()) dir = ".";  // empty PATH component = cwd, per execvp
    if (::access((dir + "/" + serve).c_str(), X_OK) == 0) return true;
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  return false;
}

/// One shard's label set, e.g. `shard="3"`.
std::string shard_label(std::size_t s) {
  return "shard=\"" + std::to_string(s) + "\"";
}

/// Prometheus exposition of the router/supervisor state, rendered by the
/// MetricsServer on the supervisor's loop each time it is scraped.
std::string render_fleet_metrics(const service::ShardRouter& router,
                                 const service::Supervisor& supervisor) {
  obs::PromText text;
  const auto& rs = router.stats();
  const auto& sup = supervisor.stats();
  const auto counter = [&text](std::string_view name, std::uint64_t value,
                               std::string_view help) {
    text.header(name, "counter", help);
    text.series(name, {}, value);
  };
  counter("saim_router_accepted_total", rs.accepted,
          "jobs routed onto the ring");
  counter("saim_router_rejected_total", rs.rejected,
          "lines rejected by the front door (bad input)");
  counter("saim_router_emitted_total", rs.emitted,
          "job result/error lines sent downstream");
  counter("saim_router_requeued_total", rs.requeued,
          "jobs moved off a dead shard");
  counter("saim_router_orphaned_total", rs.orphaned,
          "jobs errored because no live shard remained");
  counter("saim_router_sheds_total", rs.sheds,
          "jobs shed by admission control with a delayed-tagged error");
  counter("saim_supervisor_respawns_total", sup.respawns,
          "successful shard re-execs");
  counter("saim_supervisor_respawn_failures_total", sup.respawn_failures,
          "shard slots abandoned after max restarts");
  counter("saim_supervisor_reshards_total", sup.reshards,
          "live fleet membership changes");
  counter("saim_supervisor_retired_total", sup.retired,
          "shards removed by a shrink");
  counter("saim_supervisor_unresponsive_kills_total", sup.unresponsive_kills,
          "shards terminated by the health watchdog");

  text.header("saim_shards_live", "gauge", "shard slots currently on the ring");
  text.series("saim_shards_live", {},
              static_cast<std::uint64_t>(router.live_shards()));
  text.header("saim_shard_slots", "gauge",
              "shard slots ever created (live + dead)");
  text.series("saim_shard_slots", {},
              static_cast<std::uint64_t>(router.shard_slots()));
  text.header("saim_router_outstanding", "gauge",
              "jobs accepted but not yet answered");
  text.series("saim_router_outstanding", {},
              static_cast<std::uint64_t>(router.outstanding()));

  const std::size_t slots = router.shard_slots();
  text.header("saim_shard_alive", "gauge", "1 while the slot is on the ring");
  for (std::size_t s = 0; s < slots; ++s) {
    text.series("saim_shard_alive", shard_label(s),
                static_cast<std::uint64_t>(router.alive(s) ? 1 : 0));
  }
  text.header("saim_shard_queue_depth", "gauge",
              "jobs routed to the shard, not yet written");
  for (std::size_t s = 0; s < slots; ++s) {
    text.series("saim_shard_queue_depth", shard_label(s),
                static_cast<std::uint64_t>(router.pending(s)));
  }
  text.header("saim_shard_inflight", "gauge",
              "jobs written to the shard, awaiting a result");
  for (std::size_t s = 0; s < slots; ++s) {
    text.series("saim_shard_inflight", shard_label(s),
                static_cast<std::uint64_t>(router.inflight(s)));
  }
  text.header("saim_shard_routed_total", "counter",
              "jobs ever routed to the shard");
  for (std::size_t s = 0; s < slots; ++s) {
    const std::uint64_t routed =
        s < rs.routed_per_shard.size() ? rs.routed_per_shard[s] : 0;
    text.series("saim_shard_routed_total", shard_label(s), routed);
  }
  text.header("saim_shard_spilled_total", "counter",
              "jobs placed on the shard while their ring owner was at its "
              "load bound");
  for (std::size_t s = 0; s < slots; ++s) {
    const std::uint64_t spilled =
        s < rs.spilled_per_shard.size() ? rs.spilled_per_shard[s] : 0;
    text.series("saim_shard_spilled_total", shard_label(s), spilled);
  }
  text.header("saim_shard_roundtrip_ms", "histogram",
              "job written to the shard until its result line came back, "
              "milliseconds");
  for (std::size_t s = 0; s < slots; ++s) {
    text.histogram_series("saim_shard_roundtrip_ms", shard_label(s),
                          router.latency_snapshot(s));
  }
  return text.str();
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("saim_shard",
                       "shard a JSONL solve-job stream across a "
                       "self-healing fleet of saim_serve shards");
  args.add_flag("shards", "saim_serve child processes to spawn", "2")
      .add_flag("serve", "path to the saim_serve binary (default: next to "
                "this one)", "")
      .add_flag("input", "job stream path, - for stdin", "-")
      .add_flag("output", "result stream path, - for stdout", "-")
      .add_flag("workers", "solver worker threads PER SHARD (0 = hardware)",
                "1")
      .add_flag("cache", "result-cache capacity per shard (0 disables)",
                "256")
      .add_flag("window", "max in-flight jobs per shard", "32")
      .add_flag("max-queue-depth",
                "admission control: once this many routed jobs wait for "
                "a window slot, shed the lowest-priority job with a "
                "\"delayed\"-tagged error (0 = unbounded)",
                "0")
      .add_flag("ping-ms",
                "health-probe interval; a shard missing 5 pongs is "
                "terminated and respawned (0 disables)",
                "1000")
      .add_bool("no-respawn",
                "do not re-exec crashed shards (PR 4 fail-static "
                "behavior)")
      .add_flag("max-restarts",
                "consecutive crashes before a shard slot is "
                "abandoned",
                "5")
      .add_flag("metrics",
                "serve Prometheus text-format metrics on host:port "
                "(port 0 picks an ephemeral port)",
                "")
      .add_flag("metrics-port-file",
                "write the bound --metrics port to this file (rendezvous "
                "for port 0)",
                "")
      .add_flag("log-level", "stderr log threshold: debug, info, warn or "
                "error", "info")
      .add_bool("stats", "per-shard routing summary on stderr at exit");
  if (!args.parse(argc, argv)) return args.error().empty() ? 0 : 2;

  const auto log_level = util::parse_log_level(args.get("log-level"));
  if (!log_level) {
    std::fprintf(stderr,
                 "saim_shard: bad --log-level '%s' (want debug, info, warn "
                 "or error)\n",
                 args.get("log-level").c_str());
    return 2;
  }
  util::set_log_level(*log_level);

  // Every numeric flag is read here — and the ones forwarded verbatim to
  // the children are validated — so a malformed value is one diagnostic
  // and exit 2, not an abort or a crash-looping fleet.
  service::RouterOptions router_options;
  service::SupervisorOptions supervisor_options;
  std::size_t locals = 0;
  try {
    const auto nonneg = [&](const char* flag) {
      return static_cast<std::size_t>(
          std::max<std::int64_t>(0, args.get_int(flag)));
    };
    for (const char* forwarded : {"workers", "cache"}) {
      (void)args.get_int(forwarded);
    }
    locals = nonneg("shards");
    router_options.window = std::max<std::size_t>(1, nonneg("window"));
    router_options.max_queue_depth = nonneg("max-queue-depth");
    supervisor_options.max_restarts = static_cast<int>(
        std::max<std::size_t>(1, nonneg("max-restarts")));
    supervisor_options.ping_ms = static_cast<int>(nonneg("ping-ms"));
  } catch (const std::invalid_argument& e) {
    util::log_error() << "saim_shard: " << e.what();
    return 2;
  }

  if (locals == 0) locals = 1;
  router_options.shards = locals;

  std::string serve = args.get("serve");
  if (serve.empty()) serve = sibling_serve_path(argv[0]);
  if (!executable_exists(serve)) {
    util::log_error() << "saim_shard: cannot execute '" << serve << "'";
    return 2;
  }

  // The fleet: router (routing state) + supervisor (endpoints, respawn,
  // resharding, health — and the one event loop this whole
  // tool runs on).
  service::ShardRouter router(router_options);
  supervisor_options.local_argv = {
      serve,
      "--stream",
      "--workers", args.get("workers"),
      "--cache", args.get("cache"),
  };
  supervisor_options.respawn = !args.get_bool("no-respawn");
  service::Supervisor supervisor(router, supervisor_options);
  net::EventLoop& loop = supervisor.loop();

  // Ctrl-C / SIGTERM turn into a graceful shutdown: stop intake, drain
  // every accepted job, tear the fleet down, then exit. (Children sit in
  // their own process groups, so the terminal's SIGINT does not reach
  // them directly — the front door stays in charge of the drain.) They
  // go in before the stdio guard, so it leaves them alone.
  g_loop.store(&loop);
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  const net::StdioFlagsGuard stdio_flags;

  // Input and output are one non-blocking Connection on the loop.
  int in_fd = -1;
  int out_fd = -1;
  std::string bad_path;
  if (!net::open_stdio(args.get("input"), args.get("output"), &in_fd, &out_fd,
                       &bad_path)) {
    util::log_error() << "saim_shard: cannot open '" << bad_path << "'";
    return 2;
  }
  net::Connection io(in_fd, out_fd);

  // --metrics: scrapes are served on the supervisor's loop, between the
  // pumps' other callbacks, so the exposition renders straight off the
  // single-threaded router and supervisor whenever it is asked for.
  std::unique_ptr<obs::MetricsServer> metrics_server;
  try {
    metrics_server = obs::serve_metrics(
        loop, args.get("metrics"), args.get("metrics-port-file"),
        [&router, &supervisor] {
          return render_fleet_metrics(router, supervisor);
        });
  } catch (const std::exception& e) {
    util::log_error() << "saim_shard: " << e.what();
    return 2;
  }

  for (std::size_t s = 0; s < locals; ++s) supervisor.attach_local(s);

  // Intake backpressure: stop routing when this many jobs wait for a
  // window slot; input stays unread in the kernel meanwhile.
  // With admission control on, the router's shed bound must engage before
  // the intake gate stalls parsing, or no job would ever be shed.
  std::size_t high_water = router_options.shards *
                           router_options.window * 4;
  if (router_options.max_queue_depth > 0) {
    high_water = std::max(high_water, router_options.max_queue_depth + 1);
  }

  bool intake_open = true;   ///< false after {"cmd":"shutdown"} or a signal
  bool front_error = false;  ///< error lines the front door produced itself
  std::string bye_id;        ///< shutdown ack id; emitted after the drain
  bool saw_shutdown_cmd = false;

  // The fd callbacks only move bytes: input lines land in `backlog`, and
  // queued output flushes. Routing happens between pumps, below, so a
  // control line (reshard) never re-enters a pump that is running.
  std::deque<std::string> backlog;  ///< read but not yet routed
  const net::EventLoop::FdCallback read_input = [&](std::uint32_t) {
    for (auto& line : io.read_lines(/*final_line_at_eof=*/true)) {
      backlog.push_back(std::move(line));
    }
  };
  const net::EventLoop::FdCallback flush_output = [&](std::uint32_t) {
    io.pump_writes();
  };
  // Input is on the loop while intake is open and no backlog waits (the
  // EventServer pattern: a backlog pauses reading instead of buffering
  // the stream); output while bytes are queued. Off means off the loop:
  // a finished input or a vanished reader reports hangup or error
  // whatever the interest.
  const auto watch_io = [&] {
    if (intake_open && backlog.empty() && !io.eof()) {
      loop.add_fd(io.fd(), net::EventLoop::kRead, read_input);
    } else {
      loop.remove_fd(io.fd());
    }
    if (io.outbound_bytes() > 0) {
      loop.add_fd(io.out_fd(), net::EventLoop::kWrite, flush_output);
    } else {
      loop.remove_fd(io.out_fd());
    }
  };
  const auto emit = [&](std::vector<std::string> lines) {
    for (auto& line : lines) io.send_line(std::move(line));
    io.pump_writes();
  };

  std::size_t line_no = 0;
  for (;;) {
    if (g_signal && intake_open) {
      intake_open = false;  // drain what was accepted, then leave
      util::log_info() << "signal received, draining";
    }
    if (io.broken()) {
      // Whoever read our output is gone (`| head -1`) with results still
      // owed: nothing more can be delivered, so stop here and tear down.
      util::log_error()
          << "saim_shard: output closed before every result was written";
      break;
    }

    // Route buffered input as far as backpressure allows, intercepting
    // the fleet-management control lines the router must not see.
    while (intake_open && !backlog.empty() &&
           router.total_pending() < high_water) {
      const std::string line = std::move(backlog.front());
      backlog.pop_front();
      ++line_no;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

      // Fleet-management control lines (reshard/shutdown/stats) are
      // handled here; ping/drain and job lines flow to the router. The
      // substring test only gates the extra parse — false positives cost
      // one parse_json, nothing else.
      if (line.find("\"cmd\"") != std::string::npos) {
        std::string cmd_id = "job" + std::to_string(line_no);
        try {
          const util::JsonValue parsed = util::parse_json(line);
          if (const auto* id = parsed.find("id")) {
            if (!id->as_string().empty()) cmd_id = id->as_string();
          }
          const auto cmd = service::control_cmd(parsed);
          if (cmd && *cmd == "shutdown") {
            intake_open = false;
            saw_shutdown_cmd = true;
            bye_id = cmd_id;
            break;  // stop intake mid-buffer: shutdown certifies the past
          }
          if (cmd && *cmd == "reshard") {
            const auto* shards = parsed.find("shards");
            if (!shards || !shards->is_number()) {
              throw std::runtime_error("reshard needs a numeric \"shards\"");
            }
            const double want = shards->as_double();
            if (!(want >= 0.0) || want > 1024.0) {
              throw std::runtime_error("reshard \"shards\" must be 0..1024");
            }
            if (want != std::floor(want)) {
              throw std::runtime_error(
                  "reshard \"shards\" must be a whole number");
            }
            const std::size_t applied =
                supervisor.reshard(static_cast<std::size_t>(want));
            util::JsonWriter ack;
            ack.field("id", cmd_id)
                .field("resharded", true)
                .field("shards", static_cast<std::uint64_t>(applied));
            emit({ack.str()});
            continue;
          }
          if (cmd && *cmd == "stats") {
            // Fleet snapshot: the supervisor probes every live shard and a
            // later pump() emits one {"id":...,"fleet":{...}} line once all
            // replies land (or the 2 s deadline passes).
            supervisor.request_fleet_stats(cmd_id);
            continue;
          }
        } catch (const std::exception& e) {
          front_error = true;
          util::JsonWriter err;
          err.field("id", cmd_id).field("error", e.what());
          emit({err.str()});
          continue;
        }
      }
      emit(router.accept_line(line, line_no));
    }
    if (!intake_open) backlog.clear();

    const bool input_done = !intake_open || (io.eof() && backlog.empty());
    if (input_done && router.idle()) break;

    // Sleep until input, a shard, room on the output, a signal or a
    // fleet deadline (a scrape is served inside the pump).
    watch_io();
    emit(supervisor.pump(-1));
  }

  if (saw_shutdown_cmd) {
    util::JsonWriter bye;
    bye.field("id", bye_id).field("bye", true);
    emit({bye.str()});
  }

  // Graceful fleet teardown: shutdown control lines + stdin EOF, wait for
  // the children's own exits, reap — SIGKILL only on an overstay. The
  // input leaves the loop first; the output stays on it and keeps
  // flushing while the fleet drains.
  intake_open = false;
  watch_io();
  metrics_server.reset();  // the endpoint closes before the fleet goes
  supervisor.shutdown_fleet();
  emit(supervisor.drain_deferred());
  while (io.outbound_bytes() > 0) {
    watch_io();
    loop.run_once(-1);
  }
  watch_io();

  // Shutdown summary, always (Info level): the supervisor's respawn /
  // abandonment counts are the operator's only post-mortem
  // when a fleet limped. --stats adds the per-shard routing breakdown.
  {
    const auto& s = router.stats();
    const auto& sup = supervisor.stats();
    util::log_info() << "saim_shard: " << s.accepted << " accepted, "
                     << s.emitted << " emitted, " << s.rejected
                     << " rejected, " << s.requeued << " requeued, "
                     << s.orphaned << " orphaned, " << router.live_shards()
                     << "/" << router.shard_slots() << " shards alive";
    util::log_info() << "saim_shard: supervisor: " << sup.respawns
                     << " respawns, " << sup.respawn_failures
                     << " respawn failures, " << sup.reshards << " reshards, "
                     << sup.retired << " retired, " << sup.unresponsive_kills
                     << " unresponsive kills";
    if (args.get_bool("stats")) {
      for (std::size_t i = 0; i < s.routed_per_shard.size(); ++i) {
        util::log_info() << "  shard " << i << ": " << s.routed_per_shard[i]
                         << " jobs routed, " << s.spilled_per_shard[i]
                         << " spilled" << (router.alive(i) ? "" : " (down)");
      }
    }
  }

  return (router.any_error() || front_error || io.broken()) ? 1 : 0;
}
