#include "service/process_child.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <stdexcept>

namespace saim::service {

ProcessChild::ProcessChild(std::vector<std::string> argv) {
  if (argv.empty()) throw std::runtime_error("ProcessChild: empty argv");

  int to_child[2];   // parent writes [1] -> child reads [0]
  int from_child[2]; // child writes [1] -> parent reads [0]
  if (::pipe(to_child) != 0) {
    throw std::runtime_error("ProcessChild: pipe failed");
  }
  if (::pipe(from_child) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    throw std::runtime_error("ProcessChild: pipe failed");
  }

  // Built BEFORE fork(): between fork and exec only async-signal-safe
  // calls are allowed in a multithreaded parent — a heap allocation there
  // could deadlock the child on another thread's malloc lock.
  std::vector<char*> c_argv;
  c_argv.reserve(argv.size() + 1);
  for (auto& arg : argv) c_argv.push_back(arg.data());
  c_argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {to_child[0], to_child[1], from_child[0],
                         from_child[1]}) {
      ::close(fd);
    }
    throw std::runtime_error("ProcessChild: fork failed");
  }

  if (pid == 0) {  // child
    // Leave the parent's process group: a terminal Ctrl-C signals the
    // whole foreground group, and the front door must stay in charge of
    // draining its shards instead of watching them die with it.
    ::setpgid(0, 0);
    // Inherited dispositions would leak through exec: SIG_IGN survives
    // it, and this process ignores SIGPIPE (and a front door may ignore
    // more). The shard deserves a default signal table.
    ::signal(SIGPIPE, SIG_DFL);
    ::signal(SIGINT, SIG_DFL);
    ::signal(SIGTERM, SIG_DFL);
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    for (const int fd : {to_child[0], to_child[1], from_child[0],
                         from_child[1]}) {
      ::close(fd);
    }
    ::execvp(c_argv[0], c_argv.data());
    // exec failed: the parent sees immediate EOF and exit status 127.
    ::_exit(127);
  }

  pid_ = pid;
  ::close(to_child[0]);
  ::close(from_child[1]);
  conn_ = net::Connection(from_child[0], to_child[1]);
}

ProcessChild::~ProcessChild() {
  conn_.close();
  if (!reaped_ && pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status_, 0);
    reaped_ = true;
  }
}

void ProcessChild::kill(int signal) {
  if (!reaped_ && pid_ > 0) ::kill(pid_, signal);
}

bool ProcessChild::running() {
  if (reaped_) return false;
  if (pid_ <= 0) return false;
  int status = 0;
  const pid_t r = ::waitpid(pid_, &status, WNOHANG);
  if (r == pid_) {
    status_ = status;
    reaped_ = true;
    return false;
  }
  return true;
}

}  // namespace saim::service
