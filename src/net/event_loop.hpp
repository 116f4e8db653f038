// net::EventLoop — the single-threaded reactor under the serving stack.
//
// One loop multiplexes any number of fds (accepted connections, a
// listener, a stdin/stdout pair) on ONE thread: the owner registers an fd with an interest mask and a callback, the loop
// polls the whole set at once, and dispatches ready fds back through
// their callbacks. On Linux the backend is epoll (level-triggered; the
// interest set lives in the kernel, so a 10k-connection sweep costs the
// ready count, not the fd count); everywhere else — and under the
// force_poll test hook, which keeps the portable path exercised on Linux
// CI too — it is plain poll(2) over the registered set.
//
// Contracts, chosen for the event-server use case:
//   * single-threaded: every method except wakeup() must be called from
//     the loop thread. wakeup() interrupts the current poll so the loop
//     thread can notice externally-set state. The owner keeps its own
//     clock: run_once's timeout bounds how late it looks.
//   * callbacks may freely add_fd/remove_fd/set_interest, including
//     removing the fd being dispatched or any other ready fd: the
//     dispatch pass re-checks registration before every callback.
//   * error/hangup conditions are delivered as kError | kRead even when
//     read interest is off, so a paused-for-backpressure connection
//     still learns that its peer vanished instead of leaking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace saim::net {

class EventLoop {
 public:
  /// Interest / readiness bits. kError is readiness-only (never part of
  /// an interest mask); it always arrives together with kRead so a
  /// read-to-EOF path observes the failure.
  enum : std::uint32_t { kRead = 1u, kWrite = 2u, kError = 4u };

  using FdCallback = std::function<void(std::uint32_t ready)>;

  /// force_poll skips the epoll backend even on Linux (tests pin both).
  explicit EventLoop(bool force_poll = false);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` with an interest mask (kRead/kWrite, possibly 0 for
  /// a fully paused fd). Re-registering an fd replaces its entry. Throws
  /// std::system_error naming the fd when the backend refuses it (epoll
  /// rejects regular files; the poll backend takes any fd).
  void add_fd(int fd, std::uint32_t interest, FdCallback callback);
  /// Updates the interest mask of a registered fd; no-op when unknown.
  /// Throws like add_fd.
  void set_interest(int fd, std::uint32_t interest);
  /// Deregisters `fd` (the loop never closes it; the owner does).
  void remove_fd(int fd);

  /// One poll+dispatch pass: waits at most `max_wait_ms` (-1: until an
  /// fd is ready or wakeup()), then dispatches every ready fd.
  void run_once(int max_wait_ms);
  /// Thread-safe: interrupts the poll in progress so the loop thread
  /// re-evaluates external state immediately.
  void wakeup();

  [[nodiscard]] bool using_epoll() const noexcept { return epoll_fd_ >= 0; }
  /// Registered fds (the internal wakeup fd is not counted).
  [[nodiscard]] std::size_t fd_count() const noexcept { return fds_.size(); }

 private:
  struct FdEntry {
    std::uint32_t interest = 0;
    FdCallback callback;
  };
  void drain_wakeup() const;
  void dispatch(int fd, std::uint32_t ready);
  /// Mirrors an interest change into the epoll set (no-op on poll).
  void epoll_update(int fd, bool existed, std::uint32_t interest);

  int epoll_fd_ = -1;      ///< -1 on the poll backend
  int wake_read_fd_ = -1;  ///< eventfd (both roles) or pipe read end
  int wake_write_fd_ = -1;

  std::unordered_map<int, FdEntry> fds_;

  /// Scratch for the dispatch pass (poll backend); a member so a busy
  /// loop does not reallocate it every round.
  std::vector<std::pair<int, std::uint32_t>> ready_;
};

}  // namespace saim::net
