#include "net/connection.hpp"

#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <stdexcept>
#include <utility>

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

}  // namespace

Connection::Connection(int in_fd, int out_fd)
    : fd_(in_fd), out_fd_(out_fd) {
  ignore_sigpipe_once();
  for (const int fd : {fd_, out_fd_}) {
    set_nonblocking(fd);
    set_cloexec(fd);
  }
  // Result lines are small and latency matters more than throughput on a
  // serving path; losing Nagle is free on pipes-sized messages. (A no-op
  // failure on a pipe or file.)
  const int one = 1;
  ::setsockopt(out_fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

Connection::~Connection() { close(); }

Connection::Connection(Connection&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      out_fd_(std::exchange(other.out_fd_, -1)),
      outq_(std::move(other.outq_)),
      front_sent_(other.front_sent_),
      outbound_bytes_(other.outbound_bytes_),
      bytes_written_(other.bytes_written_),
      framer_(std::move(other.framer_)),
      write_broken_(other.write_broken_),
      eof_(other.eof_) {}

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    out_fd_ = std::exchange(other.out_fd_, -1);
    outq_ = std::move(other.outq_);
    front_sent_ = other.front_sent_;
    outbound_bytes_ = other.outbound_bytes_;
    bytes_written_ = other.bytes_written_;
    framer_ = std::move(other.framer_);
    write_broken_ = other.write_broken_;
    eof_ = other.eof_;
  }
  return *this;
}

void Connection::send_line(const std::string& line) {
  send_line(std::string(line));
}

void Connection::send_line(std::string&& line) {
  if (write_broken_ || out_fd_ < 0) return;
  outbound_bytes_ += line.size() + 1;  // +1: the newline sent alongside
  outq_.push_back(std::move(line));
}

bool Connection::pump_writes() {
  if (write_broken_) return false;
  if (out_fd_ < 0 || outq_.empty()) return out_fd_ >= 0;
  // One shared newline byte serves every line: the gather list
  // alternates line payloads and "\n", so a burst of result lines
  // leaves in one writev instead of one syscall (and one concatenation)
  // per line.
  static const char kNewline = '\n';
  constexpr int kMaxIov = 64;
  for (;;) {
    iovec iov[kMaxIov];
    int iov_count = 0;
    // front_sent_ is always <= front().size(): once the newline goes out
    // too, the entry is popped. So at most the front's payload is
    // partially skipped; every entry still owes its newline.
    std::size_t skip = front_sent_;
    for (const auto& line : outq_) {
      if (iov_count + 2 > kMaxIov) break;
      if (skip < line.size()) {
        iov[iov_count].iov_base = const_cast<char*>(line.data()) + skip;
        iov[iov_count].iov_len = line.size() - skip;
        ++iov_count;
      }
      iov[iov_count].iov_base = const_cast<char*>(&kNewline);
      iov[iov_count].iov_len = 1;
      ++iov_count;
      skip = 0;
    }
    const ssize_t n = ::writev(out_fd_, iov, iov_count);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // blocked
      write_broken_ = true;
      outq_.clear();
      front_sent_ = 0;
      outbound_bytes_ = 0;
      return false;
    }
    outbound_bytes_ -= static_cast<std::size_t>(n);
    bytes_written_ += static_cast<std::uint64_t>(n);
    std::size_t accepted = static_cast<std::size_t>(n);
    while (accepted > 0) {
      const std::size_t front_total = outq_.front().size() + 1;
      const std::size_t remaining = front_total - front_sent_;
      if (accepted >= remaining) {
        accepted -= remaining;
        outq_.pop_front();
        front_sent_ = 0;
      } else {
        front_sent_ += accepted;
        accepted = 0;
      }
    }
    if (outq_.empty()) return true;
  }
}

std::vector<std::string> Connection::read_lines(bool final_line_at_eof) {
  char buf[4096];
  while (fd_ >= 0 && !eof_) {
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n > 0) {
      framer_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // 0 is an orderly close; an error (ECONNRESET) a peer that vanished.
    eof_ = true;
    if (n == 0 && final_line_at_eof && framer_.partial_bytes() > 0) {
      framer_.feed("\n", 1);
    }
  }
  return framer_.take_lines();
}

void Connection::shutdown_write() {
  if (out_fd_ < 0) return;
  if (out_fd_ == fd_) {
    ::shutdown(out_fd_, SHUT_WR);
    return;
  }
  // A split pair's write fd is its own file (a pipe, stdout): closing it
  // is the only way its reader sees EOF — shutdown() wants a socket.
  ::close(out_fd_);
  out_fd_ = -1;
}

void Connection::close() {
  if (out_fd_ >= 0 && out_fd_ != fd_) ::close(out_fd_);
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  out_fd_ = -1;
}

std::optional<HostPort> parse_hostport(const std::string& spec) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 == spec.size()) {
    return std::nullopt;
  }
  HostPort hp;
  hp.host = spec.substr(0, colon);
  // Strip IPv6 brackets: "[::1]:7777" names host "::1".
  if (hp.host.size() >= 2 && hp.host.front() == '[' &&
      hp.host.back() == ']') {
    hp.host = hp.host.substr(1, hp.host.size() - 2);
  }
  if (hp.host.empty()) return std::nullopt;
  const std::string digits = spec.substr(colon + 1);
  int port = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    port = port * 10 + (c - '0');
    if (port > 65535) return std::nullopt;
  }
  hp.port = port;
  return hp;
}

Connection connect_to(const std::string& host, int port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints,
                               &result);
  if (rc != 0) {
    throw std::runtime_error("cannot resolve " + host + ":" + service +
                             ": " + ::gai_strerror(rc));
  }
  int fd = -1;
  int saved_errno = 0;
  for (addrinfo* ai = result; ai; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      saved_errno = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    saved_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd < 0) {
    throw std::runtime_error("cannot connect to " + host + ":" + service +
                             ": " + ::strerror(saved_errno));
  }
  return Connection(fd);
}

}  // namespace saim::net
