// net::Listener — a non-blocking TCP accept socket.
//
// Binds host:port (port 0 picks an ephemeral port; port() reports the
// actual one, and tools write it to --port-file so scripts and tests can
// rendezvous race-free), listens, and hands out accepted fds
// non-blockingly. The owner polls fd() for readability to learn when
// accept_fd() will succeed.
#pragma once

#include <optional>
#include <string>

namespace saim::net {

class Listener {
 public:
  /// Binds and listens. Throws std::runtime_error naming the endpoint on
  /// resolve/bind/listen failure (port already taken, bad host, ...).
  Listener(const std::string& host, int port);
  ~Listener();

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Accepts one pending connection; std::nullopt when none is waiting.
  /// The returned fd is connected and close-on-exec; wrap it in
  /// net::Connection, which makes it non-blocking.
  std::optional<int> accept_fd();

  void close();

  /// The locally bound port (resolves port 0 to the kernel's pick).
  [[nodiscard]] int port() const noexcept { return port_; }
  /// The fd to poll() for readability (a pending connection).
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_ = -1;
  int port_ = 0;
};

/// Writes `port` and a newline to `path` — the rendezvous for port 0:
/// readers poll the file until it is nonempty. An empty path writes
/// nothing. Throws std::runtime_error naming the path when it cannot be
/// written.
void write_port_file(const std::string& path, int port);

}  // namespace saim::net
