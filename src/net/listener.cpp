#include "net/listener.hpp"

#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fstream>
#include <stdexcept>
#include <utility>

#include "net/framing.hpp"

namespace saim::net {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

int bound_port(int fd) {
  sockaddr_storage addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  if (addr.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<sockaddr_in*>(&addr)->sin_port);
  }
  if (addr.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<sockaddr_in6*>(&addr)->sin6_port);
  }
  return 0;
}

}  // namespace

Listener::Listener(const std::string& host, int port) {
  // The server writes to accepted fds; a client that disconnects
  // mid-result must not SIGPIPE the whole server.
  ignore_sigpipe_once();
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* result = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               service.c_str(), &hints, &result);
  if (rc != 0) {
    throw std::runtime_error("cannot resolve " + host + ":" + service +
                             ": " + ::gai_strerror(rc));
  }
  int saved_errno = 0;
  for (addrinfo* ai = result; ai; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype,
                            ai->ai_protocol);
    if (fd < 0) {
      saved_errno = errno;
      continue;
    }
    // Restarted supervisors must be able to rebind their port while old
    // connections linger in TIME_WAIT.
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, SOMAXCONN) == 0) {
      fd_ = fd;
      break;
    }
    saved_errno = errno;
    ::close(fd);
  }
  ::freeaddrinfo(result);
  if (fd_ < 0) {
    throw std::runtime_error("cannot listen on " + host + ":" + service +
                             ": " + ::strerror(saved_errno));
  }
  set_nonblocking(fd_);
  set_cloexec(fd_);
  port_ = bound_port(fd_);
}

Listener::~Listener() { close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      port_(std::exchange(other.port_, 0)) {}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
  }
  return *this;
}

std::optional<int> Listener::accept_fd() {
  if (fd_ < 0) return std::nullopt;
  for (;;) {
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) {
      set_cloexec(client);
      return client;
    }
    if (errno == EINTR) continue;
    return std::nullopt;  // EAGAIN or a transient accept failure
  }
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void write_port_file(const std::string& path, int port) {
  if (path.empty()) return;
  std::ofstream file(path);
  if (!(file << port << "\n")) {
    throw std::runtime_error("cannot write '" + path + "'");
  }
}

}  // namespace saim::net
