// net::ShardEndpoint — what the sharding layer needs from a transport.
//
// ShardRouter is pure routing state and the Supervisor is pure pump
// logic; everything they ask of a shard is line-oriented: queue a
// line, flush, read complete lines, learn about EOF, offer fds to
// watch. This class is that contract, so the fleet can mix transports
// freely:
//
//   * service::ProcessChild — a local `saim_serve --stream` child over
//     fork/exec pipes (respawnable by the Supervisor);
//   * net::SocketChild — a remote `saim_serve --listen` over TCP (joins
//     the same hash ring; crash-handled, but not respawnable from here).
//
// Both speak through the net::Connection held here, so the line work is
// written once: send_line buffers in user space, pump_writes flushes
// what the kernel accepts, read_lines drains what arrived, and nothing
// ever blocks. One thread multiplexes any number of endpoints by
// watching read_fd() for input and, while bytes are queued, write_fd()
// for room (the Supervisor's net::EventLoop). A transport supplies only
// how a shard is stopped and collected.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "net/connection.hpp"

namespace saim::net {

class ShardEndpoint {
 public:
  virtual ~ShardEndpoint() = default;
  ShardEndpoint(const ShardEndpoint&) = delete;
  ShardEndpoint& operator=(const ShardEndpoint&) = delete;

  /// Queues `line` (plus the trailing newline) for the shard.
  void send_line(const std::string& line) { conn_.send_line(line); }

  /// Flushes as much queued output as the transport accepts right now.
  /// Returns false once the write side is broken (shard gone).
  bool pump_writes() { return conn_.pump_writes(); }

  /// Non-blocking read of every complete line the shard has produced
  /// (a half-line at EOF is a shard that died mid-write: dropped). Sets
  /// eof() once the shard closed its output.
  std::vector<std::string> read_lines() { return conn_.read_lines(); }

  /// Graceful "no more requests": EOF on the shard's input (close the
  /// pipe / shutdown(SHUT_WR)); its output stays readable for the drain.
  void shutdown_input() { conn_.shutdown_write(); }

  /// Hard stop: SIGKILL the child / close the socket. The endpoint then
  /// reaches eof() like any other death.
  virtual void terminate() = 0;

  /// Collects whatever the transport must not leak once the shard died
  /// (reaps a zombie child via waitpid; no-op for sockets). Idempotent.
  virtual void reap() noexcept {}

  /// True once the shard closed its output (all lines received) or the
  /// connection was closed outright.
  [[nodiscard]] bool eof() const { return conn_.eof() || conn_.fd() < 0; }

  /// The fd to watch for readability; negative once closed.
  [[nodiscard]] int read_fd() const { return conn_.fd(); }

  /// The fd to watch for writability while outbound_bytes() > 0 (equal
  /// to read_fd() for a socket); negative once the input side is shut.
  [[nodiscard]] int write_fd() const { return conn_.out_fd(); }

  /// Bytes queued but not yet accepted by the transport.
  [[nodiscard]] std::size_t outbound_bytes() const {
    return conn_.outbound_bytes();
  }

 protected:
  ShardEndpoint() = default;
  explicit ShardEndpoint(Connection conn) : conn_(std::move(conn)) {}

  Connection conn_;
};

}  // namespace saim::net
