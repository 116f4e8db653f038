// net::Connection — a non-blocking, line-framed stream socket.
//
// One Connection wraps one connected stream fd (TCP socket, socketpair
// end, ...), or a pre-connected pair that it reads from one fd and
// writes to the other (stdin/stdout, a child process's pipes), and
// speaks newline-delimited lines over it: every transport in the tree
// shares this one buffering discipline. Outbound lines accumulate in
// user space and flush as the kernel accepts them (pump_writes), so a
// single thread can multiplex many connections without ever blocking on
// a full send buffer; inbound bytes accumulate until complete lines are
// available (read_lines). A half-line at EOF is dropped unless the
// caller asks for it (a request stream's final line may lack its '\n').
//
// Lifecycle: eof() becomes true when the peer closed its write side (or
// the connection reset); broken() when our writes started failing. The
// owner polls fd() for readability (and out_fd() for writability while
// bytes are queued). Move-only; the destructor closes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "net/framing.hpp"

namespace saim::net {

class Connection {
 public:
  Connection() = default;  ///< empty (fd() < 0); assign from connect/accept
  /// Takes ownership of a connected stream fd and makes it non-blocking.
  explicit Connection(int fd) : Connection(fd, fd) {}
  /// Two-fd form: reads `in_fd`, writes `out_fd` (both owned, both made
  /// non-blocking; equal fds behave exactly like the one-fd form).
  Connection(int in_fd, int out_fd);
  ~Connection();

  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Queues `line` (plus the trailing newline) for the peer.
  void send_line(const std::string& line);
  /// Move overload: the serving path renders a line per job and hands it
  /// straight to the wire — no copy.
  void send_line(std::string&& line);

  /// Flushes as much queued output as the socket accepts right now, in
  /// writev batches (many small result lines leave in one syscall).
  /// Returns false once the connection is broken (queued bytes dropped).
  bool pump_writes();

  /// Non-blocking read: drains what the peer has sent and returns the
  /// complete lines. Sets eof() on an orderly close or a reset. With
  /// `final_line_at_eof`, an unterminated last line at an orderly close
  /// is returned too (a reset still drops it).
  std::vector<std::string> read_lines(bool final_line_at_eof = false);

  /// Half-close: signals EOF to the peer while the read side stays open
  /// — the graceful "no more requests" signal. A socket gets
  /// shutdown(SHUT_WR); a split pair closes its write fd (out_fd() is -1
  /// afterwards).
  void shutdown_write();

  /// Closes the fd outright (both directions).
  void close();

  [[nodiscard]] bool eof() const noexcept { return eof_; }
  [[nodiscard]] bool broken() const noexcept { return write_broken_; }
  /// The read fd (the one fd of a socket).
  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] int out_fd() const noexcept { return out_fd_; }
  /// Queued-but-unsent bytes (each line counts its trailing newline) —
  /// the event server's backpressure signal.
  [[nodiscard]] std::size_t outbound_bytes() const noexcept {
    return outbound_bytes_;
  }
  /// Bytes the kernel has accepted over the connection's life — lets the
  /// event server tell a peer that reads slowly from one that stopped.
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_;
  }
  /// Bytes buffered past the last complete inbound line — the event
  /// server's flood guard for the pre-auth handshake.
  [[nodiscard]] std::size_t inbound_partial_bytes() const noexcept {
    return framer_.partial_bytes();
  }

 private:
  int fd_ = -1;
  int out_fd_ = -1;
  /// Outbound lines, newline NOT stored (pump_writes interleaves a
  /// shared one-byte "\n" iovec) — a queued line is exactly the string
  /// the caller rendered, moved, never concatenated.
  std::deque<std::string> outq_;
  std::size_t front_sent_ = 0;  ///< bytes of outq_.front()+'\n' already sent
  std::size_t outbound_bytes_ = 0;
  std::uint64_t bytes_written_ = 0;
  LineFramer framer_;
  bool write_broken_ = false;
  bool eof_ = false;
};

struct HostPort {
  std::string host;
  int port = 0;
};

/// Parses "host:port" ("127.0.0.1:7777", "[::1]:7777", "box:7777").
/// Returns std::nullopt when the port is missing or not in 0..65535.
std::optional<HostPort> parse_hostport(const std::string& spec);

/// Connects (blocking) to host:port and returns the non-blocking
/// Connection. Throws std::runtime_error naming the endpoint on failure.
Connection connect_to(const std::string& host, int port);

}  // namespace saim::net
