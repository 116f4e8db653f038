// service::EventServer — saim_serve's one session driver, for both
// transports.
//
// One reactor thread (net::EventLoop) multiplexes every session. Each
// session pairs a net::Connection (non-blocking line IO, writev
// batching) with a StreamSessionCore (the protocol state machine), so
// every transport emits identical bytes by construction. A server is
// built either
//   * over a listener (saim_serve --listen): epoll on Linux, poll
//     elsewhere; one session per accepted connection, all sharing ONE
//     SolveService (cache, batcher and warm pool), or
//   * over one pre-connected fd pair (stdin/stdout, --input/--output
//     files): a single session, always on the poll backend — epoll buys
//     nothing for one session and rejects regular files.
// run() returns once no listener and no session is left.
//
// Completions are pushed, never polled. A solver worker that finishes a
// job runs the job's JobHandle::on_ready hook, which appends the job to
// its session's ready list (StreamSessionCore) and signals the session:
// its key goes on the server's ready_keys_ and EventLoop::wakeup()
// interrupts the poll. The reactor then renders only the signalled
// sessions' ready lines and writes them:
//
//   worker finish() -> hook -> core ready list -> signal_ready(key)
//     -> wakeup() -> run_once returns -> emit_signalled() -> render
//     -> Connection::send_line -> writev
//
// While it feeds a burst of input lines, the reactor checks the atomic
// completions_signalled_ flag after every line and sends what finished
// meanwhile. Otherwise the loop waits up to 100 ms, the housekeeping
// interval for the auth, idle and shutdown deadlines.
//
// What the reactor guarantees under hostile or slow peers:
//   * backpressure instead of unbounded buffering — when a peer stops
//     draining its socket and the connection's outbound queue passes
//     outbound_limit_bytes, the server stops READING that session (jobs
//     stop entering the service) until the queue falls to half the
//     limit. Other sessions are unaffected; server memory per slow
//     reader is bounded by the limit plus one reply. An fd-pair session
//     is a filter and keeps reading whatever its output queue holds: its
//     producer may write every job before it reads a single result.
//   * a global connection cap with fail-fast reject: connection number
//     max_connections+1 is accepted and closed immediately — nothing is
//     written, the peer sees EOF, the service never hears about it.
//   * fail-closed deadlines: with --auth-token, a connection that has
//     not presented {"auth":"<token>"} within auth_timeout_ms is
//     dropped; with idle_timeout_ms > 0, a connection with no traffic
//     and no work in flight for that long is dropped.
//
// Observability (registered on the service's MetricsRegistry, so both
// the Prometheus scrape and the {"cmd":"stats"} "connections" object see
// them):
//   saim_connections_open, saim_connections_accepted_total,
//   saim_connections_rejected_total, saim_sessions_timed_out_total.
//
// Shutdown: a session's {"cmd":"shutdown"} (or stop() from another
// thread) closes the listener and stops intake on every session.
// Accepted work always drains; only a session whose peer has taken none
// of its queued output for the shutdown grace (5 s by default) is
// dropped, and not before the grace has passed. run() returns
// saim_serve's session exit code: 0, or 1 if any session emitted an error
// line or was dropped with output unsent.
// An fd-pair session whose output breaks (a `| head -1` reader that
// left) is dropped at once — nothing it renders can be delivered — and
// also makes the exit code 1.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/listener.hpp"
#include "obs/metrics.hpp"
#include "service/solve_service.hpp"
#include "service/stream_session.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace saim::service {

struct EventServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 picks an ephemeral port; see EventServer::port()
  /// Shared secret; empty disables the handshake. With a token set, the
  /// first line of every connection must be exactly {"auth":"<token>"}
  /// or the connection closes unserved (fail-closed).
  std::string auth_token;
  SessionOptions session;
  /// Open-connection cap; further accepts are closed immediately.
  std::size_t max_connections = 1024;
  /// Per-connection outbound-queue bound that pauses reading (see
  /// header comment; unused by an fd-pair server). Not a hard memory
  /// cap: results already accepted still queue past it — it stops NEW
  /// work from entering.
  std::size_t outbound_limit_bytes = 256 * 1024;
  /// Deadline for the auth handshake (only enforced when auth_token is
  /// set); 0 disables.
  int auth_timeout_ms = 10'000;
  /// Drop a connection idle this long with nothing in flight; 0
  /// disables (an idle-parked client is legal by default — the shard
  /// router keeps quiet health-check connections open).
  int idle_timeout_ms = 0;
  /// How long after shutdown begins — and without its peer taking a
  /// byte — a session may sit on queued output before it is dropped.
  std::chrono::milliseconds shutdown_grace{5'000};
  /// Test hook: use the portable poll backend even where epoll exists
  /// (an fd-pair server always does).
  bool force_poll = false;
};

class EventServer {
 public:
  /// Binds the listener (throws std::runtime_error like net::Listener on
  /// failure) and registers the connection metrics on `service`.
  EventServer(SolveService& service, EventServerOptions options);
  /// One session over a pre-connected fd pair, both owned (in_fd may
  /// equal out_fd). No listener, no connection metrics; the host, port
  /// and connection-cap options are unused.
  EventServer(SolveService& service, int in_fd, int out_fd,
              EventServerOptions options);
  ~EventServer();

  EventServer(const EventServer&) = delete;
  EventServer& operator=(const EventServer&) = delete;

  /// The bound port (resolves port 0 to the kernel's pick); 0 without a
  /// listener.
  [[nodiscard]] int port() const noexcept {
    return listener_ ? listener_->port() : 0;
  }

  /// Serves until no listener and no session is left: a listen server
  /// until a session's {"cmd":"shutdown"} or stop(), an fd-pair server
  /// until its one session ends. Returns the saim_serve exit code: 1
  /// when any session produced an error line or was dropped with output
  /// unsent, or the fd-pair session's output broke; else 0. Call from
  /// exactly one thread.
  int run();

  /// Thread-safe: asks run() to begin the graceful shutdown sequence.
  void stop();

  /// Test-visible counters (readable from any thread while run() spins).
  /// All but backpressure_pauses are connection metrics: zero without a
  /// listener.
  struct Counters {
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;   ///< over-cap fail-fast closes
    std::uint64_t timed_out = 0;  ///< auth-deadline + idle drops
    std::uint64_t backpressure_pauses = 0;
    std::uint64_t open = 0;
  };
  [[nodiscard]] Counters counters() const;

 private:
  struct Client;
  /// Front-door metrics, registered by listen servers only: an fd-pair
  /// session has no front door, so its stats line has no "connections".
  struct ConnectionMetrics {
    obs::Counter& accepted;
    obs::Counter& rejected;
    obs::Counter& timed_out;
    obs::Gauge& open;
  };

  EventServer(SolveService& service, EventServerOptions options,
              bool listen);
  void accept_pending();
  void add_client(net::Connection conn);
  /// `output_side`: the event is on a split connection's write fd.
  void on_client_event(int fd, std::uint32_t ready, bool output_side);
  /// Feeds buffered-but-unprocessed lines to the session while the
  /// outbound queue is under the backpressure limit.
  void process_pending_lines(Client& client);
  void read_client(Client& client);
  /// Pumps writes, applies backpressure state, recomputes fd interest;
  /// closes the client when it is finished. Returns false if the client
  /// was destroyed.
  bool update_client(Client& client);
  /// A session core whose notify callback signals `key`.
  std::unique_ptr<StreamSessionCore> make_session(int key);
  /// Any thread: queues session `key` for emit_signalled() and wakes
  /// the loop.
  void signal_ready(int key) SAIM_EXCLUDES(ready_mutex_);
  /// Emits and updates every session signalled since the last call.
  void emit_signalled() SAIM_EXCLUDES(ready_mutex_);
  /// Sends every result line the session can emit right now.
  void emit_ready(Client& client);
  void housekeeping();
  void begin_shutdown() SAIM_EXCLUDES(ready_mutex_);
  void close_client(Client& client);
  void set_interest(const Client& client, std::uint32_t interest);

  SolveService& service_;
  const EventServerOptions options_;
  /// options_.outbound_limit_bytes for connections; unbounded for an fd
  /// pair (see the header comment).
  const std::size_t intake_limit_;
  std::optional<net::Listener> listener_;  ///< closed at shutdown
  net::EventLoop loop_;

  /// Sessions signalled by their cores (from solver workers or the
  /// reactor), and whether any are waiting. Declared before clients_:
  /// the sessions, and with them every completion hook, die first.
  util::Mutex ready_mutex_;
  std::vector<int> ready_keys_ SAIM_GUARDED_BY(ready_mutex_);
  std::atomic<bool> completions_signalled_{false};

  std::map<int, std::unique_ptr<Client>> clients_;
  bool stopping_ = false;
  bool done_ = false;
  bool any_error_ = false;
  std::atomic<bool> stop_requested_{false};

  std::atomic<std::uint64_t> backpressure_pauses_{0};
  std::optional<ConnectionMetrics> metrics_;
};

}  // namespace saim::service
