#include "net/stdio.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <initializer_list>

namespace saim::net {

namespace {

/// fds 0 and 1's file-status flags as found (-1: unknown). Plain ints so
/// the signal handler may read them.
int g_stdio_flags[2] = {-1, -1};

void restore_stdio_flags() {
  for (int fd = 0; fd < 2; ++fd) {
    if (g_stdio_flags[fd] >= 0) ::fcntl(fd, F_SETFL, g_stdio_flags[fd]);
  }
}

extern "C" void restore_stdio_flags_and_reraise(int sig) {
  restore_stdio_flags();  // fcntl is async-signal-safe
  ::raise(sig);           // SA_RESETHAND: the default action runs next
}

}  // namespace

StdioFlagsGuard::StdioFlagsGuard() {
  for (int fd = 0; fd < 2; ++fd) g_stdio_flags[fd] = ::fcntl(fd, F_GETFL);
  struct sigaction action {};
  action.sa_handler = restore_stdio_flags_and_reraise;
  action.sa_flags = SA_RESETHAND;
  for (const int sig : {SIGHUP, SIGINT, SIGQUIT, SIGTERM, SIGABRT}) {
    struct sigaction old {};
    if (::sigaction(sig, nullptr, &old) == 0 && old.sa_handler == SIG_DFL) {
      ::sigaction(sig, &action, nullptr);
    }
  }
}

StdioFlagsGuard::~StdioFlagsGuard() { restore_stdio_flags(); }

bool open_stdio(const std::string& input, const std::string& output,
                int* in_fd, int* out_fd, std::string* bad_path) {
  *in_fd = input == "-" ? ::dup(0) : ::open(input.c_str(), O_RDONLY);
  if (*in_fd < 0) {
    *bad_path = input;
    return false;
  }
  *out_fd = output == "-" ? ::dup(1)
                          : ::open(output.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (*out_fd < 0) {
    ::close(*in_fd);
    *bad_path = output;
    return false;
  }
  return true;
}

}  // namespace saim::net
