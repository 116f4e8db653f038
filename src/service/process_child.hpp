// ProcessChild — a supervised line-oriented coprocess over pipes.
//
// The sharding front door (tools/saim_shard, service/shard_router) runs
// each shard as a `saim_serve --stream` child process and speaks the
// JSONL protocol to it through this class: fork/exec with stdin/stdout
// piped back to the parent. One net::Connection holds both parent ends
// as a split pair (reads the child's stdout, writes its stdin) and does
// the line work: send_line buffers in user space, pump_writes flushes
// what the pipe accepts, read_lines drains what arrived, and nothing
// ever blocks. One thread multiplexes any number of children by watching
// read_fd() for input and, while bytes are queued, write_fd() for room
// (the Supervisor's net::EventLoop).
//
// Lifecycle: the child is alive until running() observes its exit via
// waitpid(WNOHANG). A clean shutdown is shutdown_input() (close the
// child's stdin) — saim_serve answers EOF by emitting every remaining
// result and exiting — followed by reading until eof(). The destructor
// is the crash path: it SIGKILLs and reaps whatever is still alive, so a
// throwing caller never leaks a process. SIGPIPE is ignored process-wide
// on first use (writes to a dead child report EPIPE instead of killing
// the router).
//
// The child starts in its own process group with SIGINT/SIGTERM/SIGPIPE
// restored to their defaults: a Ctrl-C aimed at the front door must not
// also mow down the shard fleet the front door is about to drain, and a
// parent that ignores signals must not leak that disposition through
// exec into every shard.
#pragma once

#include <signal.h>
#include <sys/types.h>

#include <cstddef>
#include <string>
#include <vector>

#include "net/connection.hpp"

namespace saim::service {

class ProcessChild {
 public:
  /// Spawns argv[0] with arguments argv[1..] (execvp, so bare names
  /// resolve through PATH; stderr is inherited). Throws std::runtime_error
  /// when pipe/fork fail. An unexecutable path surfaces as the child
  /// exiting 127 with immediate EOF, not as a constructor failure.
  explicit ProcessChild(std::vector<std::string> argv);
  ~ProcessChild();
  ProcessChild(const ProcessChild&) = delete;
  ProcessChild& operator=(const ProcessChild&) = delete;

  /// Queues `line` (plus the trailing newline) for the child's stdin.
  void send_line(const std::string& line) { conn_.send_line(line); }

  /// Flushes as much queued input as the pipe accepts right now.
  /// Returns false once the write side is broken (child gone).
  bool pump_writes() { return conn_.pump_writes(); }

  /// Non-blocking read of every complete line the child has written (a
  /// half-line at EOF is a child that died mid-write: dropped). Sets
  /// eof() once the child closed its stdout.
  std::vector<std::string> read_lines() { return conn_.read_lines(); }

  /// Graceful "no more requests": closes the child's stdin; its stdout
  /// stays readable for the drain.
  void shutdown_input() { conn_.shutdown_write(); }

  /// Sends `signal` (e.g. SIGKILL) if the child has not been reaped yet.
  void kill(int signal);
  /// Hard stop: SIGKILL. The child then reaches eof() like any other
  /// death.
  void terminate() { kill(SIGKILL); }

  /// Reaps the child via waitpid(WNOHANG) if it already exited; repeated
  /// supervisor respawns must not accumulate zombies.
  void reap() noexcept { (void)running(); }

  /// Polls waitpid(WNOHANG); false once the child exited and was reaped.
  [[nodiscard]] bool running();

  /// Raw waitpid status; meaningful once running() returned false.
  [[nodiscard]] int exit_status() const noexcept { return status_; }

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  /// True once the child closed its stdout (all lines received).
  [[nodiscard]] bool eof() const { return conn_.eof(); }

  /// The fd to watch for readability (the child's stdout).
  [[nodiscard]] int read_fd() const { return conn_.fd(); }

  /// The fd to watch for writability while outbound_bytes() > 0 (the
  /// child's stdin); negative once the input side is shut.
  [[nodiscard]] int write_fd() const { return conn_.out_fd(); }

  /// Bytes queued but not yet accepted by the pipe.
  [[nodiscard]] std::size_t outbound_bytes() const {
    return conn_.outbound_bytes();
  }

 private:
  net::Connection conn_;
  pid_t pid_ = -1;
  bool reaped_ = false;
  int status_ = 0;
};

}  // namespace saim::service
