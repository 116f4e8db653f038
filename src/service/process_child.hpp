// ProcessChild — a supervised line-oriented coprocess over pipes.
//
// The sharding front door (tools/saim_shard, service/shard_router) runs
// each local shard as a `saim_serve --stream` child process and speaks
// the JSONL protocol to it through this wrapper: fork/exec with
// stdin/stdout piped back to the parent. It is the pipe implementation
// of net::ShardEndpoint, whose Connection holds both parent ends as one
// split pair (reads the child's stdout, writes its stdin) and does all
// the line work; ProcessChild adds only the process: fork/exec, kill,
// reap and the exit status. The Supervisor drives it and
// net::SocketChild (TCP) through that one base.
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

#include <string>
#include <vector>

#include "net/shard_endpoint.hpp"

namespace saim::service {

class ProcessChild : public net::ShardEndpoint {
 public:
  /// Spawns argv[0] with arguments argv[1..] (execvp, so bare names
  /// resolve through PATH; stderr is inherited). Throws std::runtime_error
  /// when pipe/fork fail. An unexecutable path surfaces as the child
  /// exiting 127 with immediate EOF, not as a constructor failure.
  explicit ProcessChild(std::vector<std::string> argv);
  ~ProcessChild() override;

  /// Sends `signal` (e.g. SIGKILL) if the child has not been reaped yet.
  void kill(int signal);
  void terminate() override { kill(SIGKILL); }

  /// Reaps the child via waitpid(WNOHANG) if it already exited; repeated
  /// supervisor respawns must not accumulate zombies.
  void reap() noexcept override { (void)running(); }

  /// Polls waitpid(WNOHANG); false once the child exited and was reaped.
  [[nodiscard]] bool running();

  /// Raw waitpid status; meaningful once running() returned false.
  [[nodiscard]] int exit_status() const noexcept { return status_; }

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
  int status_ = 0;
};

}  // namespace saim::service
