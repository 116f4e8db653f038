// Tests for net::EventLoop (the epoll/poll reactor): fd readiness
// dispatch, interest updates, removal from inside a callback, the
// cross-thread wakeup, and regular files (refused by epoll, readable on
// poll).
// Every case runs on both backends — epoll (Linux default) and the
// portable poll fallback (force_poll) — so the fallback cannot rot.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <system_error>
#include <thread>

#include "net/event_loop.hpp"

namespace saim {
namespace {

using namespace saim::net;

class EventLoopTest : public ::testing::TestWithParam<bool> {
 protected:
  EventLoop& loop() {
    if (!loop_) loop_ = std::make_unique<EventLoop>(GetParam());
    return *loop_;
  }

 private:
  std::unique_ptr<EventLoop> loop_;
};

/// A connected socketpair the tests poke readiness through.
struct SockPair {
  int a = -1;
  int b = -1;
  SockPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SockPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST_P(EventLoopTest, BackendMatchesRequest) {
#if defined(__linux__)
  EXPECT_EQ(loop().using_epoll(), !GetParam());
#else
  EXPECT_FALSE(loop().using_epoll());
#endif
}

TEST_P(EventLoopTest, ReadReadinessDispatchesOnlyWhenDataArrives) {
  SockPair pair;
  int reads = 0;
  loop().add_fd(pair.a, EventLoop::kRead, [&](std::uint32_t ready) {
    EXPECT_TRUE(ready & EventLoop::kRead);
    ++reads;
    char buf[16];
    (void)::read(pair.a, buf, sizeof buf);
  });
  EXPECT_EQ(loop().fd_count(), 1u);

  loop().run_once(0);
  EXPECT_EQ(reads, 0) << "no data, no dispatch";

  ASSERT_EQ(::write(pair.b, "x", 1), 1);
  loop().run_once(100);
  EXPECT_EQ(reads, 1);
  loop().run_once(0);
  EXPECT_EQ(reads, 1) << "drained fd must not re-fire";
}

TEST_P(EventLoopTest, WriteInterestFiresAndCanBeDropped) {
  SockPair pair;
  int writables = 0;
  loop().add_fd(pair.a, EventLoop::kWrite,
                [&](std::uint32_t) { ++writables; });
  loop().run_once(100);
  EXPECT_EQ(writables, 1) << "an idle socket is writable";

  // Interest 0 parks the fd: registered but silent.
  loop().set_interest(pair.a, 0);
  loop().run_once(0);
  EXPECT_EQ(writables, 1);
  EXPECT_EQ(loop().fd_count(), 1u);

  loop().set_interest(pair.a, EventLoop::kWrite);
  loop().run_once(100);
  EXPECT_EQ(writables, 2);
}

TEST_P(EventLoopTest, PeerCloseReportsToParkedReaders) {
  // A connection under backpressure has read interest OFF; the loop
  // must still deliver the peer-vanished event (kError|kRead via
  // HUP/ERR) or a parked client would leak forever.
  SockPair pair;
  std::uint32_t seen = 0;
  loop().add_fd(pair.a, 0, [&](std::uint32_t ready) { seen |= ready; });
  loop().run_once(0);
  EXPECT_EQ(seen, 0u);

  ::close(pair.b);
  pair.b = -1;
  loop().run_once(100);
  EXPECT_TRUE(seen & EventLoop::kRead) << "HUP must reach interest-0 fds";
}

TEST_P(EventLoopTest, RemoveInsideCallbackIsSafe) {
  SockPair first;
  SockPair second;
  int fired = 0;
  // Both fds ready in one pass; the first callback removes the second.
  // Dispatch must not call into the removed entry.
  const auto make = [&](int self, int other) {
    loop().add_fd(self, EventLoop::kRead, [&, self, other](std::uint32_t) {
      ++fired;
      char buf[4];
      (void)::read(self, buf, sizeof buf);
      if (loop().fd_count() == 2) loop().remove_fd(other);
    });
  };
  make(first.a, second.a);
  make(second.a, first.a);
  ASSERT_EQ(::write(first.b, "x", 1), 1);
  ASSERT_EQ(::write(second.b, "x", 1), 1);
  loop().run_once(100);
  loop().run_once(0);
  EXPECT_EQ(fired, 1) << "the removed fd's callback must not run";
  EXPECT_EQ(loop().fd_count(), 1u);
}

TEST_P(EventLoopTest, WakeupEndsTheWaitFromAnotherThread) {
  EventLoop& l = loop();
  std::thread waker([&l] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    l.wakeup();
  });
  const auto start = std::chrono::steady_clock::now();
  l.run_once(5000);  // would park the whole 5 s without the wakeup
  const auto elapsed = std::chrono::steady_clock::now() - start;
  waker.join();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            900)
      << "wakeup() must end the wait early";
}

TEST_P(EventLoopTest, RegularFileThrowsOnEpollAndReadsOnPoll) {
  std::FILE* file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  const int fd = ::fileno(file);
  std::uint32_t seen = 0;
  const auto callback = [&](std::uint32_t ready) { seen |= ready; };
  if (loop().using_epoll()) {
    // epoll_ctl refuses a regular file (EPERM); recording it silently
    // would leave an fd that is never dispatched.
    EXPECT_THROW(loop().add_fd(fd, EventLoop::kRead, callback),
                 std::system_error);
    EXPECT_EQ(loop().fd_count(), 0u);
  } else {
    loop().add_fd(fd, EventLoop::kRead, callback);
    loop().run_once(100);
    EXPECT_TRUE(seen & EventLoop::kRead);
  }
  std::fclose(file);
}

INSTANTIATE_TEST_SUITE_P(Backends, EventLoopTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "poll" : "epoll";
                         });

}  // namespace
}  // namespace saim
