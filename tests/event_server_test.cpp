// In-process tests for service::EventServer as the --listen front door:
// round-trip + graceful shutdown exit code, an unterminated last line at
// EOF, a hostile deeply nested line, the global connection cap's
// fail-fast reject, the fail-closed auth deadline, the idle timeout, and
// slow-reader backpressure (bounded outbound queue that pauses reading,
// then drains completely), and the pushed completion path (200 prompt
// round trips, a drain with nothing outstanding, a cache hit that no
// worker completes). Every parameterised case runs on both reactor
// backends — epoll and the portable poll fallback. Two more cases pin
// that shutdown drains a job still solving past the shutdown grace, and
// that a burst released after the grace reaches a peer that keeps
// reading; they shorten the grace to kGrace so they take ~1.5 s, not 6. The
// fd-pair (stdin/stdout) server is pinned to keep reading while its
// output sits unread.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/event_server.hpp"
#include "service/solve_service.hpp"
#include "util/jsonl.hpp"

namespace saim::service {
namespace {

using namespace std::chrono_literals;

/// The shutdown grace of the two EventServerShutdown cases, and a job
/// deadline that outlives it several times over.
constexpr auto kGrace = 300ms;
constexpr int kPastTheGraceMs = 1500;

/// Blocking TCP client with a receive timeout — the test-side peer.
class BlockingClient {
 public:
  explicit BlockingClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    timeval tv{10, 0};  // nothing in these tests legitimately takes 10 s
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0)
        << std::strerror(errno);
  }
  ~BlockingClient() { close(); }
  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void send_line(const std::string& line) { send_raw(line + "\n"); }

  void send_raw(const std::string& framed) {
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n =
          ::send(fd_, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << std::strerror(errno);
      sent += static_cast<std::size_t>(n);
    }
  }

  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  /// Next full line; false on EOF or receive timeout.
  bool read_line(std::string& line) {
    for (;;) {
      const auto pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True when the peer half is closed: recv returns 0 within the
  /// receive timeout without delivering any byte first.
  bool reads_eof_with_no_data() {
    char byte;
    const ssize_t n = ::recv(fd_, &byte, 1, 0);
    return n == 0;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// One EventServer on its own thread; joins (and checks the exit code)
/// on destruction.
class ServerFixture {
 public:
  explicit ServerFixture(EventServerOptions options, int workers = 1) {
    ServiceOptions service_options;
    service_options.workers = workers;
    service_ = std::make_unique<SolveService>(service_options);
    server_ = std::make_unique<EventServer>(*service_, std::move(options));
    thread_ = std::thread([this] { exit_code_ = server_->run(); });
  }
  ~ServerFixture() {
    if (thread_.joinable()) {
      server_->stop();
      thread_.join();
    }
  }

  [[nodiscard]] int port() const { return server_->port(); }
  [[nodiscard]] EventServer& server() { return *server_; }

  /// Joins the server thread (run() must return on its own — e.g. after
  /// a {"cmd":"shutdown"}) and returns its exit code.
  int join() {
    thread_.join();
    return exit_code_;
  }

  /// Spins until `predicate(counters())` holds or ~5 s pass.
  template <typename Predicate>
  bool wait_for(Predicate predicate) {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (std::chrono::steady_clock::now() < deadline) {
      if (predicate(server_->counters())) return true;
      std::this_thread::sleep_for(2ms);
    }
    return predicate(server_->counters());
  }

 private:
  std::unique_ptr<SolveService> service_;
  std::unique_ptr<EventServer> server_;
  std::thread thread_;
  int exit_code_ = -1;
};

class EventServerTest : public ::testing::TestWithParam<bool> {
 protected:
  EventServerOptions base_options() {
    EventServerOptions options;
    options.session.stream = true;  // replies as they finish
    options.force_poll = GetParam();
    return options;
  }
};

/// An fd-pair EventServer over two pipes, run on its own thread — the
/// stdin/stdout session. The test writes job lines to the input pipe
/// and reads results from the output pipe, never blocking for more than
/// 10 s at a time.
class PipeServer {
 public:
  explicit PipeServer(SessionOptions session,
                      std::chrono::milliseconds shutdown_grace = 5s) {
    int in[2];
    int out[2];
    EXPECT_EQ(::pipe(in), 0);
    EXPECT_EQ(::pipe(out), 0);
    in_w_ = in[1];
    out_r_ = out[0];
    ::fcntl(in_w_, F_SETFL, O_NONBLOCK);  // writes must not hang the test
    ServiceOptions service_options;
    service_options.workers = 2;
    service_ = std::make_unique<SolveService>(service_options);
    EventServerOptions options;
    options.session = session;
    options.shutdown_grace = shutdown_grace;
    server_ = std::make_unique<EventServer>(*service_, in[0], out[1], options);
    thread_ = std::thread([this] { exit_code_ = server_->run(); });
  }
  ~PipeServer() {
    // EOF on the input and a broken output end any session.
    close_input();
    if (out_r_ >= 0) ::close(out_r_);
    if (thread_.joinable()) thread_.join();
  }
  PipeServer(const PipeServer&) = delete;
  PipeServer& operator=(const PipeServer&) = delete;

  /// False when the server stopped taking input for 10 s.
  bool write(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::write(in_w_, data.data() + sent, data.size() - sent);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno != EAGAIN) return false;
      pollfd pfd{in_w_, POLLOUT, 0};
      if (::poll(&pfd, 1, 10'000) != 1) return false;
    }
    return true;
  }

  void close_input() {
    if (in_w_ >= 0) ::close(in_w_);
    in_w_ = -1;
  }

  /// Reads to EOF in chunks of at most `chunk` bytes, pausing `pause`
  /// between reads (a slow but steady peer). Stops early when nothing
  /// arrives for 10 s.
  std::vector<std::string> read_lines_to_eof(std::size_t chunk,
                                             std::chrono::milliseconds pause) {
    std::string text;
    std::vector<char> buffer(chunk);
    for (;;) {
      pollfd pfd{out_r_, POLLIN, 0};
      if (::poll(&pfd, 1, 10'000) != 1) break;
      const ssize_t n = ::read(out_r_, buffer.data(), buffer.size());
      if (n <= 0) break;
      text.append(buffer.data(), static_cast<std::size_t>(n));
      std::this_thread::sleep_for(pause);
    }
    std::vector<std::string> lines;
    for (std::size_t start = 0; start < text.size();) {
      const auto end = text.find('\n', start);
      if (end == std::string::npos) break;
      lines.push_back(text.substr(start, end - start));
      start = end + 1;
    }
    return lines;
  }

  int join() {
    thread_.join();
    return exit_code_;
  }

 private:
  std::unique_ptr<SolveService> service_;
  std::unique_ptr<EventServer> server_;
  std::thread thread_;
  int in_w_ = -1;
  int out_r_ = -1;
  int exit_code_ = -1;
};

std::string job_line(const std::string& id, std::uint64_t seed) {
  return "{\"id\":\"" + id +
         "\",\"gen\":\"qkp:30-25-1\",\"iterations\":1,\"sweeps\":10,"
         "\"seed\":" + std::to_string(seed) + "}";
}

TEST_P(EventServerTest, RoundTripThenShutdownExitsZero) {
  ServerFixture fixture(base_options());
  BlockingClient client(fixture.port());

  client.send_line(R"({"cmd":"ping","id":"p0"})");
  std::string line;
  ASSERT_TRUE(client.read_line(line));
  util::JsonValue pong = util::parse_json(line);
  EXPECT_TRUE(pong.find("pong"));
  EXPECT_EQ(pong.find("id")->as_string(), "p0");

  client.send_line(job_line("j0", 7));
  ASSERT_TRUE(client.read_line(line));
  util::JsonValue result = util::parse_json(line);
  ASSERT_TRUE(result.find("status")) << line;
  EXPECT_EQ(result.find("status")->as_string(), "completed");
  EXPECT_EQ(result.find("id")->as_string(), "j0");

  client.send_line(R"({"id":"end","cmd":"shutdown"})");
  ASSERT_TRUE(client.read_line(line));
  EXPECT_NE(line.find("\"bye\":true"), std::string::npos) << line;
  EXPECT_TRUE(client.reads_eof_with_no_data());
  EXPECT_EQ(fixture.join(), 0);
}

TEST_P(EventServerTest, UnterminatedLastLineAtEofIsServed) {
  ServerFixture fixture(base_options());
  BlockingClient client(fixture.port());
  // No trailing newline, then an orderly half-close: the line is still a
  // request, as it is on stdin.
  client.send_raw(job_line("tail", 5));
  client.shutdown_write();
  std::string line;
  ASSERT_TRUE(client.read_line(line));
  const util::JsonValue result = util::parse_json(line);
  ASSERT_TRUE(result.find("status")) << line;
  EXPECT_EQ(result.find("id")->as_string(), "tail");
  EXPECT_TRUE(client.reads_eof_with_no_data());
}

TEST_P(EventServerTest, DeeplyNestedLineGetsAnErrorAndServingContinues) {
  ServerFixture fixture(base_options());
  BlockingClient client(fixture.port());

  // A hostile line nested far past the JSON parser's cap: the session
  // answers it with an error line instead of the process crashing, then
  // serves the next job on the same connection.
  client.send_line(std::string(100000, '['));
  std::string line;
  ASSERT_TRUE(client.read_line(line));
  EXPECT_TRUE(util::parse_json(line).find("error")) << line;

  client.send_line(job_line("after", 3));
  ASSERT_TRUE(client.read_line(line));
  const util::JsonValue result = util::parse_json(line);
  ASSERT_TRUE(result.find("status")) << line;
  EXPECT_EQ(result.find("status")->as_string(), "completed");
  EXPECT_EQ(result.find("id")->as_string(), "after");
}

TEST_P(EventServerTest, ConnectionCapRejectsFailFast) {
  EventServerOptions options = base_options();
  options.max_connections = 1;
  ServerFixture fixture(options);

  BlockingClient first(fixture.port());
  first.send_line(R"({"cmd":"ping","id":"warm"})");
  std::string line;
  ASSERT_TRUE(first.read_line(line)) << "first connection must be served";

  BlockingClient second(fixture.port());
  // The reject writes NOTHING: the first read must be a clean EOF.
  EXPECT_TRUE(second.reads_eof_with_no_data());
  EXPECT_TRUE(fixture.wait_for([](const EventServer::Counters& c) {
    return c.rejected >= 1 && c.open == 1;
  }));
  const auto counters = fixture.server().counters();
  EXPECT_EQ(counters.accepted, 1u) << "a rejected connection is not accepted";

  // The surviving session is unaffected by its neighbour's reject.
  first.send_line(R"({"cmd":"ping","id":"still"})");
  ASSERT_TRUE(first.read_line(line));
  EXPECT_NE(line.find("\"still\""), std::string::npos);
}

TEST_P(EventServerTest, AuthDeadlineDropsSilentConnections) {
  EventServerOptions options = base_options();
  options.auth_token = "sesame";
  options.auth_timeout_ms = 50;
  ServerFixture fixture(options);

  BlockingClient silent(fixture.port());
  // Fail closed: no token within the deadline -> EOF, nothing written.
  EXPECT_TRUE(silent.reads_eof_with_no_data());
  EXPECT_TRUE(fixture.wait_for(
      [](const EventServer::Counters& c) { return c.timed_out >= 1; }));

  // A prompt, correct handshake still gets in afterwards.
  BlockingClient polite(fixture.port());
  polite.send_line(R"({"auth":"sesame"})");
  polite.send_line(R"({"cmd":"ping","id":"in"})");
  std::string line;
  ASSERT_TRUE(polite.read_line(line));
  EXPECT_NE(line.find("\"pong\""), std::string::npos) << line;
}

TEST_P(EventServerTest, WrongTokenClosesUnserved) {
  EventServerOptions options = base_options();
  options.auth_token = "sesame";
  ServerFixture fixture(options);

  BlockingClient wrong(fixture.port());
  wrong.send_line(R"({"auth":"open says me"})");
  EXPECT_TRUE(wrong.reads_eof_with_no_data())
      << "a bad token must close the connection without a reply";
  EXPECT_TRUE(fixture.wait_for(
      [](const EventServer::Counters& c) { return c.open == 0; }));
}

TEST_P(EventServerTest, IdleTimeoutDropsQuietConnections) {
  EventServerOptions options = base_options();
  options.idle_timeout_ms = 50;
  ServerFixture fixture(options);

  BlockingClient quiet(fixture.port());
  EXPECT_TRUE(quiet.reads_eof_with_no_data());
  EXPECT_TRUE(fixture.wait_for([](const EventServer::Counters& c) {
    return c.timed_out >= 1 && c.open == 0;
  }));
}

TEST_P(EventServerTest, SlowReaderHitsBackpressureThenDrainsFully) {
  EventServerOptions options = base_options();
  // A tiny bound so a handful of pong echoes trips the pause.
  options.outbound_limit_bytes = 1024;
  ServerFixture fixture(options);
  BlockingClient client(fixture.port());

  // ~60 KB of pings with fat ids, sent while this client reads nothing.
  // Well under one side's kernel socket buffering, so the blocking
  // sends cannot deadlock against the paused server.
  constexpr int kPings = 100;
  const std::string padding(512, 'x');
  for (int i = 0; i < kPings; ++i) {
    client.send_line("{\"cmd\":\"ping\",\"id\":\"bp" + std::to_string(i) +
                     "-" + padding + "\"}");
  }

  EXPECT_TRUE(fixture.wait_for([](const EventServer::Counters& c) {
    return c.backpressure_pauses >= 1;
  })) << "a 1 KiB outbound bound must pause against an unread 60 KB echo";

  // Backpressure pauses intake; it must not drop anything. Once this
  // side drains, every ping is answered, in order.
  std::string line;
  for (int i = 0; i < kPings; ++i) {
    ASSERT_TRUE(client.read_line(line)) << "missing pong " << i;
    EXPECT_NE(line.find("\"bp" + std::to_string(i) + "-"), std::string::npos)
        << "out of order at " << i << ": " << line;
  }

  client.send_line(R"({"id":"end","cmd":"shutdown"})");
  ASSERT_TRUE(client.read_line(line));
  EXPECT_NE(line.find("\"bye\":true"), std::string::npos);
  EXPECT_EQ(fixture.join(), 0);
}

// Completions are pushed: a lost wakeup would leave each reply to the
// 100 ms housekeeping wait, about 20 s for the whole run.
TEST_P(EventServerTest, SequentialRoundTripsAreWokenByCompletions) {
  ServerFixture fixture(base_options(), /*workers=*/2);
  BlockingClient client(fixture.port());
  constexpr int kRounds = 200;
  const auto start = std::chrono::steady_clock::now();
  std::string line;
  for (int i = 0; i < kRounds; ++i) {
    client.send_line(job_line("r" + std::to_string(i), 100 + i));
    ASSERT_TRUE(client.read_line(line)) << "no reply to round " << i;
    ASSERT_NE(line.find("\"id\":\"r" + std::to_string(i) + "\""),
              std::string::npos)
        << line;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
}

TEST_P(EventServerTest, DrainWithNothingOutstandingIsAcknowledged) {
  ServerFixture fixture(base_options());
  BlockingClient client(fixture.port());
  client.send_line(R"({"cmd":"drain","id":"d0"})");
  std::string line;
  ASSERT_TRUE(client.read_line(line)) << "the drain was never acknowledged";
  const util::JsonValue ack = util::parse_json(line);
  EXPECT_EQ(ack.find("id")->as_string(), "d0");
  ASSERT_TRUE(ack.find("drained")) << line;
}

TEST_P(EventServerTest, CacheHitIsEmittedWithoutAWorkerCompletion) {
  ServerFixture fixture(base_options());
  BlockingClient client(fixture.port());
  std::string line;
  client.send_line(job_line("cold", 9));
  ASSERT_TRUE(client.read_line(line));
  // The same job again is served by submit() from the cache: no worker
  // finishes it, so nothing but the session itself can wake the loop.
  client.send_line(job_line("hot", 9));
  ASSERT_TRUE(client.read_line(line)) << "the cache hit was never emitted";
  const util::JsonValue hot = util::parse_json(line);
  EXPECT_EQ(hot.find("id")->as_string(), "hot");
  ASSERT_TRUE(hot.find("cache_hit")) << line;
  EXPECT_TRUE(hot.find("cache_hit")->as_bool()) << line;
}

// Not parameterised: it takes the whole job deadline.
TEST(EventServerShutdown, WorkStillSolvingDrainsPastTheGrace) {
  EventServerOptions options;
  options.session.stream = true;
  options.shutdown_grace = kGrace;
  ServerFixture fixture(options);
  BlockingClient client(fixture.port());
  // The job outlives the shutdown grace. Its peer keeps reading, so the
  // session waits on the service and must not be dropped.
  client.send_line(
      R"({"gen":"qkp:200-25-1","iterations":100000,"deadline_ms":)" +
      std::to_string(kPastTheGraceMs) + "}");
  client.send_line(R"({"cmd":"shutdown"})");
  std::string line;
  ASSERT_TRUE(client.read_line(line)) << "the job's line was dropped";
  const util::JsonValue result = util::parse_json(line);
  ASSERT_TRUE(result.find("status")) << line;
  EXPECT_EQ(result.find("status")->as_string(), "deadline");
  ASSERT_TRUE(client.read_line(line));
  EXPECT_NE(line.find("\"bye\":true"), std::string::npos) << line;
  EXPECT_EQ(fixture.join(), 0);
}

// Not parameterised: it takes the whole job deadline. In batch mode the
// slow first job holds back every later result, so they all leave in one
// burst after the grace — more than a pipe buffer holds. The peer reads
// slowly but steadily, so none of it may be dropped.
TEST(EventServerShutdown, BurstAfterTheGraceReachesAPeerThatKeepsReading) {
  SessionOptions session;
  session.stream = false;
  PipeServer server(session, kGrace);
  constexpr int kQuick = 100;
  const std::string padding(1024, 'x');  // > 100 KiB of output in all
  std::string input =
      R"({"id":"slow","gen":"qkp:200-25-1","iterations":100000,)"
      R"("deadline_ms":)" +
      std::to_string(kPastTheGraceMs) + "}\n";
  for (int i = 0; i < kQuick; ++i) {
    input += "{\"id\":\"q" + std::to_string(i) + "-" + padding +
             R"(","gen":"qkp:30-25-1","iterations":1,"sweeps":10})" + "\n";
  }
  input += R"({"id":"end","cmd":"shutdown"})" "\n";
  ASSERT_TRUE(server.write(input));

  const auto lines = server.read_lines_to_eof(4096, 1ms);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kQuick + 2));
  const util::JsonValue slow = util::parse_json(lines.front());
  EXPECT_EQ(slow.find("id")->as_string(), "slow");
  EXPECT_EQ(slow.find("status")->as_string(), "deadline");
  for (int i = 0; i < kQuick; ++i) {
    const util::JsonValue quick = util::parse_json(lines[1 + i]);
    EXPECT_EQ(quick.find("id")->as_string(),
              "q" + std::to_string(i) + "-" + padding);
  }
  EXPECT_NE(lines.back().find("\"bye\":true"), std::string::npos)
      << lines.back();
  EXPECT_EQ(server.join(), 0);
}

// A filter's producer may write every job before it reads any result:
// the fd-pair session must keep reading however much output waits.
TEST(EventServerFdPair, KeepsReadingWhileItsOutputIsUnread) {
  SessionOptions session;
  session.stream = true;
  PipeServer server(session);
  constexpr int kPings = 1000;
  const std::string padding(1024, 'x');
  auto pings = [&padding](int from, int to) {
    std::string input;
    for (int i = from; i < to; ++i) {
      input += "{\"cmd\":\"ping\",\"id\":\"p" + std::to_string(i) + "-" +
               padding + "\"}\n";
    }
    return input;
  };
  // ~420 KB of replies: past the listen servers' 256 KiB intake bound
  // plus the output pipe. The pause lets them all reach the server
  // before the rest of the input has to get in too.
  ASSERT_TRUE(server.write(pings(0, kPings / 2 - 100)));
  std::this_thread::sleep_for(100ms);
  ASSERT_TRUE(server.write(pings(kPings / 2 - 100, kPings)))
      << "the server stopped reading while its output was unread";
  server.close_input();

  const auto lines = server.read_lines_to_eof(64 * 1024, 0ms);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kPings));
  for (int i = 0; i < kPings; ++i) {
    EXPECT_NE(lines[i].find("\"p" + std::to_string(i) + "-"),
              std::string::npos)
        << "out of order at " << i;
  }
  EXPECT_EQ(server.join(), 0);
}

INSTANTIATE_TEST_SUITE_P(Backends, EventServerTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "poll" : "epoll";
                         });

}  // namespace
}  // namespace saim::service
