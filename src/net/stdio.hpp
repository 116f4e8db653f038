// Stdio plumbing shared by the tools that serve a JSONL session over
// --input/--output (saim_serve, saim_shard).
//
// Such a session runs on an event loop, so its Connection sets
// O_NONBLOCK through dup()s of fds 0 and 1. The flag lives on the open
// file description, which a terminal or a shell pipeline shares with
// other processes, so StdioFlagsGuard puts both fds' flags back on
// destruction — and, for SIGHUP, SIGINT, SIGQUIT, SIGTERM and SIGABRT
// (where an uncaught exception ends) still at their default action,
// from a handler that then re-raises. A signal the tool handles itself
// (a graceful drain) or ignores is left alone: install those handlers
// first. One guard per process, built before the fds turn non-blocking.
#pragma once

#include <string>

namespace saim::net {

class StdioFlagsGuard {
 public:
  StdioFlagsGuard();
  ~StdioFlagsGuard();

  StdioFlagsGuard(const StdioFlagsGuard&) = delete;
  StdioFlagsGuard& operator=(const StdioFlagsGuard&) = delete;
};

/// Opens a session's fd pair: "-" duplicates fd 0 (input) or fd 1
/// (output), so the caller owns and closes whatever it gets; any other
/// path is opened, the output created or truncated. On failure nothing
/// stays open and `*bad_path` names the path that failed.
bool open_stdio(const std::string& input, const std::string& output,
                int* in_fd, int* out_fd, std::string* bad_path);

}  // namespace saim::net
