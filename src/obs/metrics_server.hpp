// MetricsServer — the scrape-able `--metrics host:port` endpoint.
//
// A client of the event loop its owner already runs: the listener and
// every accepted scrape are fds on that loop, so the endpoint adds no
// thread and no wakeup of its own. Each scrape is served one-shot,
// HTTP-ish: read the request head (ignored beyond framing — every path
// scrapes the same payload), call the producer once, queue an HTTP/1.0
// response carrying its Prometheus text exposition, flush it as the
// socket accepts it, close. That is exactly what `curl` and a Prometheus
// scraper need and nothing more: no keep-alive, no routing, no TLS — the
// endpoint binds loopback by default and trusts its network like the job
// port does.
//
// The producer runs ON THE LOOP THREAD, between the owner's own
// callbacks, so it reads single-threaded state (the shard router, the
// supervisor) directly and the exposition is rendered fresh for every
// scrape. Every socket call is non-blocking; a scraper that connects and
// stalls holds one slot of kMaxOpenScrapes, and accepting past the cap
// closes the oldest open scrape, so no scraper can wedge the loop or pin
// unbounded fds.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/listener.hpp"

namespace saim::obs {

class MetricsServer {
 public:
  using Producer = std::function<std::string()>;

  /// Open scrapes at most; accepting one more closes the oldest.
  static constexpr std::size_t kMaxOpenScrapes = 8;
  /// A request head is read up to its blank line, EOF or this many
  /// bytes, whichever comes first.
  static constexpr std::size_t kMaxHeadBytes = 16 * 1024;

  /// Binds and registers on `loop`; scrapes are served from then on by
  /// whoever drives the loop. Throws std::runtime_error on bind failure
  /// (net::Listener's diagnostics). Port 0 picks an ephemeral port;
  /// port() reports the bound one. Destroy the server before `loop`.
  MetricsServer(net::EventLoop& loop, const std::string& host, int port,
                Producer producer);
  /// Removes the endpoint's fds from the loop and closes them.
  ~MetricsServer();

  MetricsServer(const MetricsServer&) = delete;
  MetricsServer& operator=(const MetricsServer&) = delete;

  [[nodiscard]] int port() const noexcept { return listener_.port(); }
  /// Scrapes accepted and not yet closed.
  [[nodiscard]] std::size_t open_scrapes() const noexcept {
    return scrapes_.size();
  }

 private:
  struct Scrape {
    net::Connection conn;
    std::size_t head_bytes = 0;
    bool responded = false;
  };

  void accept_pending();
  void on_scrape_event(int fd);
  void respond(Scrape& scrape);
  void close_scrape(std::deque<Scrape>::iterator it);

  net::EventLoop& loop_;
  net::Listener listener_;
  Producer producer_;
  std::deque<Scrape> scrapes_;  ///< accept order: the oldest first
};

/// The `--metrics host:port` / `--metrics-port-file` setup every tool
/// shares: parses `spec`, binds on `loop`, writes the bound port to
/// `port_file` (when nonempty) and logs where it listens. Returns null
/// for an empty spec. Throws std::runtime_error with a one-line
/// diagnostic on a bad spec, a failed bind or an unwritable port file.
std::unique_ptr<MetricsServer> serve_metrics(net::EventLoop& loop,
                                             const std::string& spec,
                                             const std::string& port_file,
                                             MetricsServer::Producer producer);

}  // namespace saim::obs
