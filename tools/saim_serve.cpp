// saim_serve — JSONL front-end to the asynchronous solve service.
//
// Reads one job per line, runs every job through one SolveService
// (priority queue, worker pool with per-worker cached models,
// content-keyed result cache), and emits one JSON result line per job.
// Every job runs cold: nothing carries over from one job to the next
// except a cached result for an identical request.
// The full wire protocol — every request and response field, control
// lines, error lines, exit codes, worked examples — is specified in
// docs/PROTOCOL.md; keep that file in lockstep with this one (CI greps
// it for every emitted field name).
// The protocol state machine lives in service/stream_session.{hpp,cpp},
// the session driver for both transports in service/event_server.
// {hpp,cpp}, the job-line parser in service/job_parser.{hpp,cpp}
// (shared with tools/saim_shard).
//
// Transports (both run on service::EventServer):
//   * default — one session over --input/--output (stdin/stdout or
//     files): the classic filter invocation, on the poll backend. An
//     unterminated last line is still served.
//   * --listen host:port — serve the same protocol over TCP through the
//     event-driven front door (service/EventServer: one epoll/poll
//     reactor thread multiplexing every connection, per-connection
//     write backpressure, a --max-connections fail-fast cap,
//     --auth-timeout-ms / --idle-timeout-ms deadlines). Every
//     connection speaks its own session over ONE shared SolveService
//     (the result cache is shared). Port 0 picks an ephemeral port;
//     --port-file writes the bound port for race-free rendezvous. With
//     --auth-token the first line of every connection must be the
//     {"auth":"<token>"} handshake or the connection is closed unserved
//     (fail-closed).
//
// Output modes (per session): default collects results until EOF and
// prints them in input order; --stream emits each result the moment it
// completes, tagged with a per-session "seq" in completion order.
//
// Control lines (docs/PROTOCOL.md): ping, drain, shutdown (drain +
// {"bye":true}; also stops a --listen server), stats (one
// {"id":...,"service":{...}} snapshot: counters, cache state,
// per-stage latency quantiles). --metrics host:port serves the same
// service state as a Prometheus text-format scrape, answered on the
// EventServer's own reactor and rendered when scraped; jobs with
// "trace":true get a per-stage "timing" object on their result line.
//
// Example:
//   printf '%s\n' '{"id":"a","gen":"qkp:60-25-1","iterations":100}' \
//     | saim_serve --workers 4 --stream
//
// Exit status: 0 when every line produced a result, 1 when any line was
// rejected (malformed JSON, unknown backend, unreadable instance); bad
// lines emit {"id":...,"error":...} and do not sink the rest of the
// stream.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/connection.hpp"
#include "net/listener.hpp"
#include "net/stdio.hpp"
#include "obs/metrics_server.hpp"
#include "service/event_server.hpp"
#include "service/service_stats.hpp"
#include "service/solve_service.hpp"
#include "service/stream_session.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace {

using namespace saim;

/// --metrics and --metrics-port-file, carried to whichever transport
/// runs.
struct MetricsFlags {
  std::string spec;
  std::string port_file;
};

/// The --metrics endpoint on `server`'s reactor (null without
/// --metrics). It renders straight off the service, whose stats struct
/// and metrics registry are atomic. Throws like obs::serve_metrics;
/// destroy it before the server.
std::unique_ptr<obs::MetricsServer> serve_metrics(
    service::EventServer& server, service::SolveService& svc,
    const MetricsFlags& metrics) {
  return obs::serve_metrics(
      server.loop(), metrics.spec, metrics.port_file,
      [&svc] { return service::service_metrics_prometheus(svc); });
}

/// --listen: the event-driven front door (service/EventServer — see its
/// header for the backpressure, cap and deadline semantics).
int serve_listen(service::SolveService& svc, const std::string& spec,
                 const std::string& port_file,
                 service::EventServerOptions options,
                 const MetricsFlags& metrics) {
  const auto hostport = net::parse_hostport(spec);
  if (!hostport) {
    util::log_error() << "saim_serve: bad --listen '" << spec
                      << "' (want host:port)";
    return 2;
  }
  options.host = hostport->host;
  options.port = hostport->port;
  std::unique_ptr<service::EventServer> server;
  std::unique_ptr<obs::MetricsServer> metrics_endpoint;
  try {
    server = std::make_unique<service::EventServer>(svc, std::move(options));
    metrics_endpoint = serve_metrics(*server, svc, metrics);
    net::write_port_file(port_file, server->port());
  } catch (const std::exception& e) {
    util::log_error() << "saim_serve: " << e.what();
    return 2;
  }
  util::log_info() << "saim_serve: listening on " << hostport->host << ":"
                   << server->port();
  return server->run();
}

/// Default transport: one session over --input/--output (fds 0 and 1
/// for "-"). The server owns and closes the fds it is given, so it gets
/// duplicates of 0 and 1.
int serve_stdio(service::SolveService& svc, const std::string& input,
                const std::string& output,
                const service::SessionOptions& session,
                const MetricsFlags& metrics) {
  int in_fd = -1;
  int out_fd = -1;
  std::string bad_path;
  if (!net::open_stdio(input, output, &in_fd, &out_fd, &bad_path)) {
    util::log_error() << "saim_serve: cannot open '" << bad_path << "'";
    return 2;
  }
  // The session sets O_NONBLOCK on fds 0 and 1's open file descriptions;
  // the guard puts the flags back on every exit, signals included.
  const net::StdioFlagsGuard stdio_flags;
  service::EventServerOptions options;
  options.session = session;
  service::EventServer server(svc, in_fd, out_fd, std::move(options));
  std::unique_ptr<obs::MetricsServer> metrics_endpoint;
  try {
    metrics_endpoint = serve_metrics(server, svc, metrics);
  } catch (const std::exception& e) {
    util::log_error() << "saim_serve: " << e.what();
    return 2;
  }
  return server.run();
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("saim_serve",
                       "serve a JSONL stream of SAIM solve jobs");
  args.add_flag("input", "job stream path, - for stdin", "-")
      .add_flag("output", "result stream path, - for stdout", "-")
      .add_flag("listen",
                "serve the protocol on host:port (TCP) instead of "
                "input/output; port 0 picks an ephemeral port",
                "")
      .add_flag("port-file",
                "write the bound --listen port to this file (rendezvous "
                "for port 0)",
                "")
      .add_flag("auth-token",
                "shared secret for --listen: clients must open with "
                "{\"auth\":\"<token>\"} or the connection is closed",
                "")
      .add_flag("max-connections",
                "open-connection cap for --listen; further accepts are "
                "closed immediately",
                "1024")
      .add_flag("auth-timeout-ms",
                "drop a --listen connection that has not completed the "
                "--auth-token handshake within this deadline (0 disables)",
                "10000")
      .add_flag("idle-timeout-ms",
                "drop a --listen connection idle this long "
                "with nothing in flight (0 disables)",
                "0")
      .add_flag("workers", "solver worker threads (0 = hardware)", "0")
      .add_flag("cache", "result-cache capacity (0 disables)", "256")
      .add_bool("stream",
                "emit result lines as jobs finish (tagged with \"seq\") "
                "instead of in input order after EOF")
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
      .add_bool("stats", "append a final summary line to stderr");
  if (!args.parse(argc, argv)) return args.error().empty() ? 0 : 2;

  const auto log_level = util::parse_log_level(args.get("log-level"));
  if (!log_level) {
    std::fprintf(stderr,
                 "saim_serve: bad --log-level '%s' (want debug, info, warn "
                 "or error)\n",
                 args.get("log-level").c_str());
    return 2;
  }
  util::set_log_level(*log_level);

  service::ServiceOptions service_options;
  service::EventServerOptions listen_options;
  try {
    // Negative values would wrap to huge size_t counts; clamp to the
    // "pick for me" / "disabled" zero instead.
    service_options.workers = static_cast<std::size_t>(
        std::max<std::int64_t>(0, args.get_int("workers")));
    service_options.cache_capacity = static_cast<std::size_t>(
        std::max<std::int64_t>(0, args.get_int("cache")));
    listen_options.max_connections = static_cast<std::size_t>(
        std::max<std::int64_t>(1, args.get_int("max-connections")));
    listen_options.auth_timeout_ms = static_cast<int>(
        std::max<std::int64_t>(0, args.get_int("auth-timeout-ms")));
    listen_options.idle_timeout_ms = static_cast<int>(
        std::max<std::int64_t>(0, args.get_int("idle-timeout-ms")));
  } catch (const std::invalid_argument& e) {
    util::log_error() << "saim_serve: " << e.what();
    return 2;
  }
  service::SolveService svc(service_options);

  service::SessionOptions session_options;
  session_options.stream = args.get_bool("stream");

  const MetricsFlags metrics{args.get("metrics"),
                             args.get("metrics-port-file")};

  int exit_code = 0;
  if (!args.get("listen").empty()) {
    listen_options.auth_token = args.get("auth-token");
    listen_options.session = session_options;
    exit_code = serve_listen(svc, args.get("listen"), args.get("port-file"),
                             std::move(listen_options), metrics);
  } else {
    exit_code = serve_stdio(svc, args.get("input"), args.get("output"),
                            session_options, metrics);
  }

  if (args.get_bool("stats")) {
    const auto s = svc.stats();
    std::fprintf(stderr,
                 "saim_serve: %llu submitted, %llu executed, "
                 "%llu model builds, %llu reuses, cache hit-rate %.2f\n",
                 static_cast<unsigned long long>(s.submitted),
                 static_cast<unsigned long long>(s.executed),
                 static_cast<unsigned long long>(s.model_builds),
                 static_cast<unsigned long long>(s.model_reuses),
                 s.cache.hit_rate());
  }
  return exit_code;
}
