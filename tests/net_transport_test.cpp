// Tests for the src/net transport subsystem: line framing over stream
// fds (partial lines, short reads, EOF mid-line), the non-blocking
// Connection, host:port parsing, Listener/connect_to over loopback TCP,
// and — when the build provides SAIM_SERVE_BIN — a plain connect_to
// client against real `saim_serve --listen` servers: the --auth-token
// handshake gate and the shutdown control line.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/connection.hpp"
#include "net/framing.hpp"
#include "net/listener.hpp"
#include "service/process_child.hpp"
#include "util/jsonl.hpp"

namespace saim {
namespace {

using namespace saim::net;

// ---------------------------------------------------------------- framing

TEST(LineFramer, AssemblesLinesAcrossArbitraryFragments) {
  LineFramer framer;
  framer.feed("he", 2);
  EXPECT_TRUE(framer.take_lines().empty());
  framer.feed("llo\nwor", 7);
  const auto first = framer.take_lines();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0], "hello");
  EXPECT_EQ(framer.partial_bytes(), 3u);  // "wor" awaits its newline
  framer.feed("ld\n", 3);
  const auto second = framer.take_lines();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0], "world");
  EXPECT_EQ(framer.partial_bytes(), 0u);
}

TEST(LineFramer, ManyLinesInOneFragmentAndEmptyLines) {
  LineFramer framer;
  const std::string chunk = "a\n\nb\n";
  framer.feed(chunk.data(), chunk.size());
  const auto lines = framer.take_lines();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "");
  EXPECT_EQ(lines[2], "b");
}

TEST(LineFramer, ByteAtATimeDelivery) {
  LineFramer framer;
  const std::string line = "{\"id\":\"x\",\"gen\":\"qkp:30-25-1\"}\n";
  std::vector<std::string> got;
  for (const char c : line) {
    framer.feed(&c, 1);
    for (auto& l : framer.take_lines()) got.push_back(std::move(l));
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0] + "\n", line);
}

// ------------------------------------------------------------- connection

/// A connected socketpair with `a` wrapped in Connection and `b` raw.
struct Pair {
  Connection a;
  int b_fd = -1;
  Pair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = Connection(fds[0]);
    b_fd = fds[1];
  }
  ~Pair() {
    if (b_fd >= 0) ::close(b_fd);
  }
};

TEST(Connection, ShortReadsReassembleIntoLines) {
  Pair pair;
  // Write a line in torn fragments with pauses the reader cannot see.
  const std::string line = "{\"id\":\"frag\"}";
  ASSERT_EQ(::write(pair.b_fd, line.data(), 5), 5);
  EXPECT_TRUE(pair.a.read_lines().empty()) << "half a line is not a line";
  const std::string rest = line.substr(5) + "\nnext";
  ASSERT_EQ(::write(pair.b_fd, rest.data(), rest.size()),
            static_cast<ssize_t>(rest.size()));
  const auto lines = pair.a.read_lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], line);
  EXPECT_FALSE(pair.a.eof());

  // The trailing "next" never gets its newline: dropped at EOF.
  ::close(pair.b_fd);
  pair.b_fd = -1;
  EXPECT_TRUE(pair.a.read_lines().empty());
  EXPECT_TRUE(pair.a.eof());
}

TEST(Connection, LineLargerThanOneReadBuffer) {
  Pair pair;
  std::string big(20000, 'x');  // several 4096-byte reads
  big += "\n";
  std::size_t off = 0;
  std::vector<std::string> lines;
  while (off < big.size()) {
    const auto n = ::write(pair.b_fd, big.data() + off,
                           std::min<std::size_t>(4096, big.size() - off));
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
    for (auto& l : pair.a.read_lines()) lines.push_back(std::move(l));
  }
  for (auto& l : pair.a.read_lines()) lines.push_back(std::move(l));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].size(), 20000u);
}

TEST(Connection, SendBuffersUntilPumpedAndSurvivesBackpressure) {
  Pair pair;
  // Queue more than the kernel buffer will take at once.
  const std::string line(8192, 'y');
  for (int i = 0; i < 100; ++i) pair.a.send_line(line);
  // Pump while the peer drains; everything must arrive.
  std::size_t received = 0;
  while (received < 100 * (line.size() + 1)) {
    pair.a.pump_writes();
    char buf[16384];
    const auto n = ::recv(pair.b_fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n > 0) received += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(pair.a.outbound_bytes(), 0u);
}

TEST(Connection, WriteToClosedPeerBreaksInsteadOfKilling) {
  Pair pair;
  ::close(pair.b_fd);
  pair.b_fd = -1;
  pair.a.send_line("into the void");
  // One pump may succeed into the kernel buffer; repeated pumps must
  // surface the break without raising SIGPIPE (process-wide ignore is
  // installed by every Connection).
  for (int i = 0; i < 10 && pair.a.pump_writes(); ++i) {
    pair.a.send_line("more");
  }
  EXPECT_TRUE(pair.a.broken() || pair.a.outbound_bytes() == 0);
}

TEST(Connection, ShutdownWriteOnASplitPipePairSignalsEofAndKeepsReading) {
  // The ProcessChild shape: read one pipe, write another. shutdown()
  // would fail with ENOTSOCK here; the write pipe must be closed instead.
  int inbound[2];
  int outbound[2];
  ASSERT_EQ(::pipe(inbound), 0);
  ASSERT_EQ(::pipe(outbound), 0);
  Connection conn(inbound[0], outbound[1]);
  conn.send_line("last request");
  ASSERT_TRUE(conn.pump_writes());
  conn.shutdown_write();
  EXPECT_EQ(conn.out_fd(), -1);

  // The far end reads the queued line, then EOF.
  std::string received;
  char buf[256];
  for (;;) {
    pollfd ready{outbound[0], POLLIN, 0};
    ASSERT_EQ(::poll(&ready, 1, 5000), 1) << "no EOF: the write pipe is open";
    const ssize_t n = ::read(outbound[0], buf, sizeof buf);
    ASSERT_GE(n, 0);
    if (n == 0) break;
    received.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(received, "last request\n");

  // The read side is untouched: replies still arrive, then EOF.
  ASSERT_EQ(::write(inbound[1], "reply\n", 6), 6);
  ::close(inbound[1]);
  std::vector<std::string> lines;
  for (int spin = 0; spin < 2000 && !conn.eof(); ++spin) {
    for (auto& l : conn.read_lines()) lines.push_back(std::move(l));
  }
  EXPECT_TRUE(conn.eof());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "reply");
  ::close(outbound[0]);
}

TEST(ParseHostPort, AcceptsAndRejects) {
  const auto ok = parse_hostport("127.0.0.1:7777");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->host, "127.0.0.1");
  EXPECT_EQ(ok->port, 7777);

  const auto v6 = parse_hostport("[::1]:80");
  ASSERT_TRUE(v6.has_value());
  EXPECT_EQ(v6->host, "::1");
  EXPECT_EQ(v6->port, 80);

  const auto zero = parse_hostport("box:0");
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(zero->port, 0);

  EXPECT_FALSE(parse_hostport("noport").has_value());
  EXPECT_FALSE(parse_hostport("host:").has_value());
  EXPECT_FALSE(parse_hostport(":123").has_value());
  EXPECT_FALSE(parse_hostport("host:abc").has_value());
  EXPECT_FALSE(parse_hostport("host:70000").has_value());
}

// ------------------------------------------------------ listener loopback

TEST(Listener, EphemeralPortAcceptsAndExchangesLines) {
  Listener listener("127.0.0.1", 0);
  ASSERT_GT(listener.port(), 0);
  EXPECT_FALSE(listener.accept_fd().has_value()) << "nobody connected yet";

  Connection client = connect_to("127.0.0.1", listener.port());
  std::optional<int> server_fd;
  for (int spin = 0; spin < 2000 && !server_fd; ++spin) {
    server_fd = listener.accept_fd();
    if (!server_fd) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(server_fd.has_value());
  Connection server(*server_fd);

  client.send_line("ping over tcp");
  client.pump_writes();
  std::vector<std::string> got;
  for (int spin = 0; spin < 2000 && got.empty(); ++spin) {
    got = server.read_lines();
    if (got.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "ping over tcp");

  server.send_line("pong over tcp");
  server.pump_writes();
  got.clear();
  for (int spin = 0; spin < 2000 && got.empty(); ++spin) {
    got = client.read_lines();
    if (got.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "pong over tcp");

  // Half-close from the client is EOF for the server, not an error.
  client.shutdown_write();
  for (int spin = 0; spin < 2000 && !server.eof(); ++spin) {
    server.read_lines();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(server.eof());
}

TEST(Listener, ConnectToNobodyThrows) {
  int dead_port;
  {
    Listener probe("127.0.0.1", 0);
    dead_port = probe.port();
  }  // closed: nothing listens there now
  EXPECT_THROW((void)connect_to("127.0.0.1", dead_port), std::runtime_error);
}

// ------------------------------------------ saim_serve --listen sessions

const char* serve_bin() {
#ifdef SAIM_SERVE_BIN
  return SAIM_SERVE_BIN;
#else
  return nullptr;
#endif
}

/// A `saim_serve --listen` server. The process handle keeps it alive;
/// the bound port comes back through --port-file (race-free with
/// ephemeral ports).
struct ListenServer {
  std::unique_ptr<service::ProcessChild> process;
  int port = 0;
};

ListenServer spawn_listen_serve(const std::string& tag,
                                std::vector<std::string> extra_args = {}) {
  ListenServer server;
  const std::string port_file = "net_test_port_" + tag + ".tmp";
  std::remove(port_file.c_str());
  std::vector<std::string> argv{serve_bin(),    "--listen", "127.0.0.1:0",
                                "--port-file",  port_file,  "--stream",
                                "--workers",    "1",        "--cache",
                                "0"};
  argv.insert(argv.end(), extra_args.begin(), extra_args.end());
  server.process = std::make_unique<service::ProcessChild>(std::move(argv));
  for (int spin = 0; spin < 10000 && server.port == 0; ++spin) {
    std::ifstream pf(port_file);
    if (!(pf >> server.port)) {
      server.port = 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::remove(port_file.c_str());
  return server;
}

/// Opens a client session. A non-empty `token` is queued as the
/// session's first line, {"auth":"..."}, the handshake a server started
/// with --auth-token reads before it creates a session.
Connection open_session(int port, const std::string& token = "") {
  Connection session = connect_to("127.0.0.1", port);
  if (!token.empty()) {
    util::JsonWriter hello;
    hello.field("auth", token);
    session.send_line(hello.str());
  }
  return session;
}

/// Sends one job over `session` and collects lines until EOF or the
/// first result, whichever comes first.
std::vector<std::string> try_one_job(Connection& session) {
  session.send_line(
      R"({"id":"one","gen":"qkp:30-25-1","iterations":2,"sweeps":20})");
  session.pump_writes();
  std::vector<std::string> lines;
  for (int spin = 0; spin < 20000 && !session.eof() && lines.empty();
       ++spin) {
    session.pump_writes();
    for (auto& l : session.read_lines()) lines.push_back(std::move(l));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& l : session.read_lines()) lines.push_back(std::move(l));
  return lines;
}

TEST(ShardAuth, TokenGatesTheSessionFailingClosed) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  auto server = spawn_listen_serve("auth", {"--auth-token", "s3cr3t"});
  ASSERT_GT(server.port, 0);

  // Correct token: the {"auth":...} handshake goes first and the session
  // proceeds normally.
  {
    Connection session = open_session(server.port, "s3cr3t");
    const auto lines = try_one_job(session);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"status\":\"completed\""), std::string::npos);
    EXPECT_FALSE(session.eof());
  }

  // Wrong token: the server closes the connection before the job line is
  // ever parsed — EOF, zero result lines.
  {
    Connection session = open_session(server.port, "wrong");
    const auto lines = try_one_job(session);
    EXPECT_TRUE(lines.empty()) << lines.front();
    EXPECT_TRUE(session.eof());
  }

  // Missing token: the first line is a job, not a handshake — same
  // fail-closed close, and the job is NOT executed.
  {
    Connection session = open_session(server.port);
    const auto lines = try_one_job(session);
    EXPECT_TRUE(lines.empty()) << lines.front();
    EXPECT_TRUE(session.eof());
  }

  // The gate is per-session: a good client still works afterwards.
  {
    Connection session = open_session(server.port, "s3cr3t");
    const auto lines = try_one_job(session);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"status\":\"completed\""), std::string::npos);
  }
  server.process->terminate();
}

TEST(ShardAuth, NoServerTokenMeansNoHandshakeRequired) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  auto server = spawn_listen_serve("noauth");
  ASSERT_GT(server.port, 0);
  Connection session = open_session(server.port);
  const auto lines = try_one_job(session);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"status\":\"completed\""), std::string::npos);
  server.process->terminate();
}

TEST(TransportEquality, ListenServerShutdownCmdExitsZero) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  auto server = spawn_listen_serve("bye");
  ASSERT_GT(server.port, 0);
  // A second, idle client parked in the server's blocking read: the
  // shutdown below must not hang on it (the server half-closes parked
  // sessions to unblock them).
  Connection idler = connect_to("127.0.0.1", server.port);
  Connection session = open_session(server.port);
  session.send_line(
      R"({"id":"one","gen":"qkp:30-25-1","iterations":2,"sweeps":20})");
  session.send_line(R"({"cmd":"shutdown","id":"bye"})");
  session.pump_writes();

  std::vector<std::string> lines;
  for (int spin = 0; spin < 20000 && !session.eof(); ++spin) {
    for (auto& l : session.read_lines()) lines.push_back(std::move(l));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& l : session.read_lines()) lines.push_back(std::move(l));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"status\":\"completed\""), std::string::npos);
  const auto bye = util::parse_json(lines[1]);
  EXPECT_TRUE(bye.find("bye")->as_bool());

  // The whole server process exits 0: shutdown is a clean stop.
  auto* process = server.process.get();
  for (int spin = 0; spin < 20000 && process->running(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(process->running()) << "server must exit after shutdown";
  ASSERT_TRUE(WIFEXITED(process->exit_status()));
  EXPECT_EQ(WEXITSTATUS(process->exit_status()), 0);
}

}  // namespace
}  // namespace saim
