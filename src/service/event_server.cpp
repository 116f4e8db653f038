#include "service/event_server.hpp"

#include <unistd.h>

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "util/jsonl.hpp"
#include "util/logging.hpp"

namespace saim::service {

namespace {

/// The auth handshake line cap: a peer that streams an endless first
/// "line" is cut off, not buffered.
constexpr std::size_t kMaxAuthLineBytes = 4096;

/// How long after shutdown begins — and without its peer taking a byte —
/// a session may sit on queued output before it is dropped.
constexpr auto kShutdownGrace = std::chrono::seconds(5);

/// The loop's longest wait: deadlines (auth, idle, shutdown grace) are
/// checked at least this often. Completions and fd readiness wake it at
/// once.
constexpr int kHousekeepingMs = 100;

/// Exactly {"auth":"<token>"} — wrong token, no auth field, malformed
/// JSON all fail closed.
bool auth_line_ok(const std::string& line, const std::string& token) {
  try {
    const util::JsonValue parsed = util::parse_json(line);
    if (!parsed.is_object()) return false;
    const auto* auth = parsed.find("auth");
    return auth != nullptr && auth->as_string() == token;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

struct EventServer::Client {
  net::Connection conn;
  /// Null while the auth handshake is outstanding: an unauthenticated
  /// peer never reaches the parser or the service.
  std::unique_ptr<StreamSessionCore> core;
  /// Read-but-not-yet-fed lines. Non-empty only under backpressure: the
  /// feed stops the moment the outbound queue passes the limit, so one
  /// read burst cannot amplify into an unbounded reply queue.
  std::deque<std::string> pending_lines;
  bool awaiting_auth = false;
  bool input_closed = false;
  bool reading_paused = false;
  bool kill = false;  ///< condemned (auth failure, flood); close ASAP
  std::chrono::steady_clock::time_point accepted_at;
  std::chrono::steady_clock::time_point last_activity;
  /// Output progress: conn.bytes_written() when last seen, and when the
  /// peer last took bytes (or had nothing queued).
  std::uint64_t written_mark = 0;
  std::chrono::steady_clock::time_point last_write_progress;
};

EventServer::EventServer(SolveService& service, EventServerOptions options,
                         bool listen)
    : service_(service),
      options_(std::move(options)),
      intake_limit_(listen ? options_.outbound_limit_bytes : SIZE_MAX),
      loop_(options_.force_poll || !listen) {
  if (!listen) return;
  listener_.emplace(options_.host, options_.port);
  obs::MetricsRegistry& registry = service.metrics();
  metrics_.emplace(ConnectionMetrics{
      registry.counter("saim_connections_accepted_total",
                       "connections accepted by the listen server"),
      registry.counter("saim_connections_rejected_total",
                       "connections closed unserved: over the connection cap"),
      registry.counter("saim_sessions_timed_out_total",
                       "connections dropped by the auth or idle deadline"),
      registry.gauge("saim_connections_open", "connections open right now")});
}

EventServer::EventServer(SolveService& service, EventServerOptions options)
    : EventServer(service, std::move(options), /*listen=*/true) {}

EventServer::EventServer(SolveService& service, int in_fd, int out_fd,
                         EventServerOptions options)
    : EventServer(service, std::move(options), /*listen=*/false) {
  add_client(net::Connection(in_fd, out_fd));
}

EventServer::~EventServer() = default;

EventServer::Counters EventServer::counters() const {
  Counters c;
  c.backpressure_pauses = backpressure_pauses_.load(std::memory_order_relaxed);
  if (metrics_) {
    c.accepted = metrics_->accepted.value();
    c.rejected = metrics_->rejected.value();
    c.timed_out = metrics_->timed_out.value();
    c.open = static_cast<std::uint64_t>(metrics_->open.value());
  }
  return c;
}

void EventServer::stop() {
  stop_requested_.store(true);
  loop_.wakeup();
}

int EventServer::run() {
  if (listener_) {
    loop_.add_fd(listener_->fd(), net::EventLoop::kRead,
                 [this](std::uint32_t) { accept_pending(); });
  }
  while (!done_) {
    loop_.run_once(kHousekeepingMs);
    if (stop_requested_.exchange(false)) begin_shutdown();
    emit_signalled();
    housekeeping();
  }
  return any_error_ ? 1 : 0;
}

std::unique_ptr<StreamSessionCore> EventServer::make_session(int key) {
  return std::make_unique<StreamSessionCore>(
      service_, options_.session, [this, key] { signal_ready(key); });
}

void EventServer::signal_ready(int key) {
  {
    util::MutexLock lock(ready_mutex_);
    ready_keys_.push_back(key);
  }
  completions_signalled_.store(true);
  loop_.wakeup();
}

// A key may be stale (its session closed since) or repeated; both cost
// one lookup.
void EventServer::emit_signalled() {
  if (!completions_signalled_.exchange(false)) return;
  std::vector<int> keys;
  {
    util::MutexLock lock(ready_mutex_);
    keys.swap(ready_keys_);
  }
  for (const int key : keys) {
    const auto it = clients_.find(key);
    if (it == clients_.end()) continue;
    emit_ready(*it->second);
    update_client(*it->second);  // may destroy the client, never another
  }
}

void EventServer::accept_pending() {
  while (const auto fd = listener_->accept_fd()) {
    if (clients_.size() >= options_.max_connections) {
      // Fail fast: nothing is written, the service never hears about
      // it, the peer reads EOF. A queue here would just convert the
      // overload into latency for everyone already connected.
      ::close(*fd);
      metrics_->rejected.add();
      util::log_warn() << "saim_serve: rejected connection (cap "
                       << options_.max_connections << " reached)";
      continue;
    }
    add_client(net::Connection(*fd));
    metrics_->accepted.add();
    metrics_->open.set(static_cast<double>(clients_.size()));
  }
}

// Clients are keyed by their read fd. A split connection (stdin/stdout)
// also registers its write fd, whose events route to the same client.
void EventServer::add_client(net::Connection conn) {
  auto client = std::make_unique<Client>();
  client->conn = std::move(conn);
  client->awaiting_auth = !options_.auth_token.empty();
  const int key = client->conn.fd();
  const int out = client->conn.out_fd();
  if (!client->awaiting_auth) client->core = make_session(key);
  client->accepted_at = std::chrono::steady_clock::now();
  client->last_activity = client->accepted_at;
  clients_.emplace(key, std::move(client));
  loop_.add_fd(key, net::EventLoop::kRead, [this, key](std::uint32_t ready) {
    on_client_event(key, ready, /*output_side=*/false);
  });
  if (out != key) {
    loop_.add_fd(out, 0, [this, key](std::uint32_t ready) {
      on_client_event(key, ready, /*output_side=*/true);
    });
  }
}

void EventServer::on_client_event(int fd, std::uint32_t ready,
                                  bool output_side) {
  const auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  Client& client = *it->second;
  if (ready & net::EventLoop::kWrite) client.conn.pump_writes();
  if (output_side) {
    // A pipe's write end reports an error once its reader is gone (and
    // keeps reporting it whatever the interest): nothing this session
    // renders can be delivered any more.
    if (ready & net::EventLoop::kError) client.kill = true;
  } else if (ready & (net::EventLoop::kRead | net::EventLoop::kError)) {
    read_client(client);
  }
  update_client(client);
}

void EventServer::read_client(Client& client) {
  auto lines = client.conn.read_lines(/*final_line_at_eof=*/true);
  if (client.input_closed) return;  // intake over; reads only detect EOF
  if (!lines.empty()) {
    client.last_activity = std::chrono::steady_clock::now();
    for (auto& line : lines) client.pending_lines.push_back(std::move(line));
  }
  if (client.awaiting_auth &&
      client.conn.inbound_partial_bytes() > kMaxAuthLineBytes) {
    util::log_warn() << "saim_serve: closed unauthenticated connection";
    client.kill = true;
    return;
  }
  process_pending_lines(client);
}

void EventServer::process_pending_lines(Client& client) {
  if (client.input_closed) {
    client.pending_lines.clear();
    return;
  }
  while (!client.pending_lines.empty() && !client.kill &&
         client.conn.outbound_bytes() <= intake_limit_) {
    const std::string line = std::move(client.pending_lines.front());
    client.pending_lines.pop_front();
    if (client.awaiting_auth) {
      if (line.size() > kMaxAuthLineBytes ||
          !auth_line_ok(line, options_.auth_token)) {
        // Closed before any job line reaches the parser, the service, or
        // the filesystem.
        util::log_warn() << "saim_serve: closed unauthenticated connection";
        client.kill = true;
        return;
      }
      client.awaiting_auth = false;
      client.core = make_session(client.conn.fd());
      continue;
    }
    std::vector<std::string> replies;
    const bool keep_reading = client.core->on_line(line, replies);
    for (auto& reply : replies) client.conn.send_line(std::move(reply));
    // A line can cost a millisecond (a "gen" job builds its instance), so
    // a burst of them must not hold back results that finished meanwhile:
    // a shard router refills its window only as results arrive.
    if (completions_signalled_.load()) emit_ready(client);
    if (!keep_reading) {
      // {"cmd":"shutdown"}: this session's intake is over (its bye
      // barrier emits once everything before it has), and the whole
      // server begins the graceful stop.
      client.input_closed = true;
      client.pending_lines.clear();
      client.core->finish_input();
      begin_shutdown();
      return;
    }
  }
  if (client.conn.eof() && client.pending_lines.empty() &&
      !client.input_closed) {
    client.input_closed = true;
    if (client.core) client.core->finish_input();
  }
}

bool EventServer::update_client(Client& client) {
  client.conn.pump_writes();
  if (client.kill || client.conn.broken()) {
    if (!listener_) {
      // The fd-pair session IS the process's output: once it breaks,
      // results are lost, and the exit status must say so. (A --listen
      // client that vanishes is its own business.)
      util::log_warn() << "saim_serve: output closed before every result "
                          "was written";
      any_error_ = true;
    }
    close_client(client);
    return false;
  }
  // Resuming from backpressure: feed the lines parked while the queue
  // was over the limit (this may push it back over — the loop in
  // process_pending_lines stops again, and reading stays paused).
  if (!client.pending_lines.empty() &&
      client.conn.outbound_bytes() <= intake_limit_ / 2) {
    process_pending_lines(client);
    if (client.kill) {
      close_client(client);
      return false;
    }
  }
  const std::size_t outbound = client.conn.outbound_bytes();
  const bool want_pause =
      outbound > intake_limit_ || !client.pending_lines.empty();
  if (want_pause && !client.reading_paused) {
    client.reading_paused = true;
    backpressure_pauses_.fetch_add(1, std::memory_order_relaxed);
  } else if (!want_pause && client.reading_paused) {
    client.reading_paused = false;
  }
  const bool session_drained = !client.core || client.core->drained();
  if (client.input_closed && session_drained && outbound == 0) {
    close_client(client);
    return false;
  }
  if (client.conn.eof() && client.awaiting_auth) {
    close_client(client);  // peer gone before the handshake
    return false;
  }
  std::uint32_t interest = 0;
  if (!client.reading_paused && !client.input_closed &&
      !client.conn.eof()) {
    interest |= net::EventLoop::kRead;
  }
  if (outbound > 0) interest |= net::EventLoop::kWrite;
  set_interest(client, interest);
  return true;
}

void EventServer::set_interest(const Client& client, std::uint32_t interest) {
  const int in = client.conn.fd();
  const int out = client.conn.out_fd();
  if (in == out) {
    loop_.set_interest(in, interest);
    return;
  }
  // A pipe or tty at EOF reports a hangup whatever the interest, so a
  // finished input fd leaves the poll set instead of spinning the loop.
  if (client.conn.eof()) {
    loop_.remove_fd(in);
  } else {
    loop_.set_interest(in, interest & net::EventLoop::kRead);
  }
  loop_.set_interest(out, interest & net::EventLoop::kWrite);
}

void EventServer::emit_ready(Client& client) {
  if (!client.core) return;
  std::vector<std::string> lines;
  client.core->poll_emittable(lines);
  if (lines.empty()) return;
  for (auto& line : lines) client.conn.send_line(std::move(line));
  client.conn.pump_writes();
}

void EventServer::housekeeping() {
  const auto now = std::chrono::steady_clock::now();
  for (auto it = clients_.begin(); it != clients_.end();) {
    Client& client = *(it++)->second;  // close_client erases only it
    const std::size_t outbound = client.conn.outbound_bytes();
    if (outbound == 0 || client.conn.bytes_written() != client.written_mark) {
      client.written_mark = client.conn.bytes_written();
      client.last_write_progress = now;
    }
    // Shutting down, a session whose peer has taken no byte of its queued
    // output for the whole grace forfeits it. One still waiting on the
    // service, or whose peer is reading, keeps its work — accepted jobs
    // always drain.
    if (stopping_ && now - client.last_write_progress >= kShutdownGrace) {
      util::log_warn() << "saim_serve: dropped a session whose peer stopped "
                          "reading ("
                       << outbound << " bytes unsent)";
      any_error_ = true;  // accepted work went undelivered
      close_client(client);
      continue;
    }
    bool expired = false;
    if (client.awaiting_auth && options_.auth_timeout_ms > 0 &&
        now - client.accepted_at >
            std::chrono::milliseconds(options_.auth_timeout_ms)) {
      util::log_warn()
          << "saim_serve: dropped connection (no auth within "
          << options_.auth_timeout_ms << " ms)";
      expired = true;
    } else if (options_.idle_timeout_ms > 0 && !client.input_closed &&
               client.conn.outbound_bytes() == 0 &&
               (!client.core || client.core->unemitted_count() == 0) &&
               now - client.last_activity >
                   std::chrono::milliseconds(options_.idle_timeout_ms)) {
      util::log_warn() << "saim_serve: dropped idle connection ("
                       << options_.idle_timeout_ms << " ms)";
      expired = true;
    }
    if (expired) {
      if (metrics_) metrics_->timed_out.add();
      close_client(client);
    }
  }
  if ((stopping_ || !listener_) && clients_.empty()) done_ = true;
}

void EventServer::begin_shutdown() {
  if (stopping_) return;
  stopping_ = true;
  const auto now = std::chrono::steady_clock::now();
  if (listener_) {
    loop_.remove_fd(listener_->fd());
    listener_->close();
  }
  // Stop intake everywhere (a parked idle client must not veto the
  // shutdown): accepted work still drains out over the intact write
  // side. Every session changed, so the run loop updates each one next
  // (not here: this may run inside one client's callback).
  {
    util::MutexLock lock(ready_mutex_);
    for (const auto& [fd, client_ptr] : clients_) ready_keys_.push_back(fd);
  }
  completions_signalled_.store(true);
  for (const auto& [fd, client_ptr] : clients_) {
    Client& client = *client_ptr;
    client.last_write_progress = now;  // the grace starts now
    if (client.input_closed) continue;
    client.input_closed = true;
    client.pending_lines.clear();
    if (client.core) {
      client.core->finish_input();
    } else {
      client.kill = true;  // unauthenticated: nothing to drain
    }
  }
}

void EventServer::close_client(Client& client) {
  if (client.core && client.core->any_error()) any_error_ = true;
  const int fd = client.conn.fd();
  loop_.remove_fd(fd);
  loop_.remove_fd(client.conn.out_fd());
  clients_.erase(fd);  // destroys `client`; do not touch it past here
  if (metrics_) metrics_->open.set(static_cast<double>(clients_.size()));
}

}  // namespace saim::service
