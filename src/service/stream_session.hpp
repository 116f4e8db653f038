// StreamSession — one JSONL serving conversation over any line IO.
//
// PR 4's saim_serve had the whole wire protocol (docs/PROTOCOL.md) woven
// into its main(): read job lines, submit to the SolveService, emit
// result lines (input order after EOF, or completion order with "seq"
// under --stream), answer control lines. run_stream_session() is that
// loop extracted behind a SessionIO seam, so the identical protocol —
// byte for byte — serves
//
//   * stdin/stdout  (IostreamSessionIO; saim_serve's default, driven by
//     the blocking run_stream_session()),
//   * TCP sockets   (saim_serve --listen: service/event_server.{hpp,cpp}
//     drives one StreamSessionCore per connection from a net::EventLoop).
//
// The protocol state machine itself lives in StreamSessionCore: a
// non-blocking, push/pull core (feed lines in, poll finished result
// lines out) shared by both drivers, so stdin sessions and socket
// sessions emit identical bytes by construction.
//
// Per-session state: job table, seq counter (stream mode numbers each
// CONNECTION's accepted jobs 0..n-1), drain barriers. Shared state: the
// SolveService. The emitter thread (stream mode, blocking driver) writes
// results the moment they complete, even while the reader blocks on a
// slow producer.
//
// Control lines handled here: ping, stats (immediate service snapshot:
// counters, cache stats, latency quantiles — see service_stats.hpp),
// drain, shutdown (stop intake, drain everything accepted, emit
// {"bye":true}, end the session), export_warm (warm-pool snapshot as
// {"warm":{...}}), import_warm (deposit exported samples). reshard is
// the sharding front door's command and is answered with an error line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "service/solve_service.hpp"
#include "util/jsonl.hpp"

namespace saim::service {

struct SessionOptions {
  /// Emit results as jobs finish (tagged with "seq") instead of in input
  /// order after EOF.
  bool stream = false;
  /// --warm-start: per-job "warm_start" default.
  bool warm_default = false;
};

struct SessionResult {
  bool any_error = false;  ///< some line produced an error line
  bool shutdown = false;   ///< {"cmd":"shutdown"} ended the session
};

/// The line transport a session speaks through. read_line blocks; the
/// session serializes write_line calls itself (implementations need no
/// locking against the session, only against other sessions if they
/// share a sink).
class SessionIO {
 public:
  virtual ~SessionIO() = default;
  /// Blocks for the next input line; false on EOF / peer close.
  virtual bool read_line(std::string& line) = 0;
  /// Writes `line` plus a newline; may buffer until flush().
  virtual void write_line(const std::string& line) = 0;
  /// Pushes buffered output to the peer. The session flushes after
  /// every burst of result lines in stream mode (a coprocess is
  /// waiting) but only once at the end in batch mode — a big file run
  /// must not pay one flush per line.
  virtual void flush() {}
};

/// std::istream/std::ostream adapter (stdin/stdout or files).
class IostreamSessionIO : public SessionIO {
 public:
  IostreamSessionIO(std::istream& in, std::ostream& out) : in_(in), out_(out) {}
  bool read_line(std::string& line) override;
  void write_line(const std::string& line) override;
  void flush() override;

 private:
  std::istream& in_;
  std::ostream& out_;
};

/// The protocol state machine of one session, decoupled from any
/// transport or thread: feed input lines with on_line() (immediate
/// replies — pong, stats, import acks — come back through `replies`),
/// mark EOF with finish_input(), and pull finished result lines with
/// poll_emittable(), which NEVER blocks. Internally synchronized: the
/// blocking driver calls on_line and poll_emittable from two threads;
/// the event server calls everything from its one reactor thread (the
/// lock is then uncontended).
///
/// Emission contract (identical to the historical in-line loop, pinned
/// by the transport-equality tests):
///   * stream mode — completion order; every rendered line of an
///     accepted job carries the next "seq"; a drain/shutdown/export
///     barrier waits until every entry before it has emitted;
///   * batch mode — nothing emits before finish_input(); afterwards
///     results render in input order (poll_emittable yields the maximal
///     finished prefix per call; drain_blocking waits for everything).
class StreamSessionCore {
 public:
  StreamSessionCore(SolveService& service, const SessionOptions& options);
  ~StreamSessionCore();

  StreamSessionCore(const StreamSessionCore&) = delete;
  StreamSessionCore& operator=(const StreamSessionCore&) = delete;

  /// Processes one input line (job, control, or garbage — garbage
  /// becomes a queued error line). Immediate replies are appended to
  /// `replies`. Returns false once intake stops ({"cmd":"shutdown"});
  /// further calls are ignored.
  bool on_line(const std::string& line, std::vector<std::string>& replies);

  /// Marks end of input (EOF or the transport dropping the session).
  void finish_input();

  /// Appends every line emittable right now (non-blocking; see the
  /// emission contract above). Returns true once the session is fully
  /// drained: input finished and nothing left to emit.
  bool poll_emittable(std::vector<std::string>& out);

  /// Blocking drain for run_stream_session's batch path: renders
  /// everything still pending, waiting on unfinished jobs, in input
  /// order.
  void drain_blocking(std::vector<std::string>& out);

  /// True when input is finished and every accepted line has emitted.
  [[nodiscard]] bool drained() const;
  /// True when poll_emittable could make progress soon: unemitted
  /// entries exist (stream mode) or exist after EOF (batch mode). The
  /// event server's completion-sweep cadence keys off this.
  [[nodiscard]] bool needs_poll() const;
  /// Accepted-but-unemitted lines (jobs and barriers) — nonzero while
  /// work is still in flight, whatever the mode.
  [[nodiscard]] std::size_t unemitted_count() const;
  [[nodiscard]] SessionResult result() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Serves one complete conversation: reads until EOF or shutdown,
/// answers every line per docs/PROTOCOL.md, returns once everything
/// accepted has been emitted.
SessionResult run_stream_session(SolveService& service, SessionIO& io,
                                 const SessionOptions& options);

// --------------------------------------------------------- warm payloads
// The {"warm":{...}} wire object: problem fingerprints (16 hex digits,
// the same rendering as result-line fingerprints) mapping to arrays of
// {"cost":C,"bits":"0101..."} samples, best cost first.

/// Serializes a pool snapshot as the warm payload object.
std::string warm_pool_to_json(
    const std::vector<ResultCache::WarmSnapshot>& pool);

/// Offers every sample in a parsed warm payload to `service`'s pool.
/// Returns the number of samples offered; throws std::runtime_error on a
/// malformed payload.
std::size_t import_warm_json(SolveService& service,
                             const util::JsonValue& warm);

/// "9c0f4a6e12b35d88" -> the fingerprint; std::nullopt when not 1-16
/// lowercase hex digits.
std::optional<std::uint64_t> parse_fp_hex(const std::string& hex);

}  // namespace saim::service
