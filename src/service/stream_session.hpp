// StreamSession — one JSONL serving conversation.
//
// The whole wire protocol (docs/PROTOCOL.md) for one session: read job
// lines, submit to the SolveService, emit result lines (input order
// after EOF, or completion order with "seq" under --stream), answer
// control lines. StreamSessionCore is that state machine as a
// non-blocking push/pull core (feed lines in, pull finished result lines
// out). service::EventServer drives one core per session from its
// reactor thread — stdin/stdout and every TCP connection alike — so all
// transports emit identical bytes by construction.
//
// Completions are pushed: each accepted job's JobHandle::on_ready hook
// runs on the solver worker that finishes it, appends the job's index to
// the core's ready list and calls the driver's notify callback, which
// wakes the reactor; the reactor then renders only what is on the list.
// Nothing ever scans the outstanding jobs.
//
// Per-session state: job table, ready list, seq counter (stream mode
// numbers each session's accepted jobs 0..n-1), lowest-unemitted
// watermark for barriers. Shared state: the SolveService.
//
// Control lines handled here: ping, stats (immediate service snapshot:
// counters, cache stats, latency quantiles — see service_stats.hpp),
// drain, shutdown (stop intake, drain everything accepted, emit
// {"bye":true}, end the session), export_warm (warm-pool snapshot as
// {"warm":{...}}), import_warm (deposit exported samples). reshard is
// the sharding front door's command and is answered with an error line.
#pragma once

#include <cstdint>
#include <functional>
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

/// The protocol state machine of one session, decoupled from any
/// transport: feed input lines with on_line() (immediate replies —
/// pong, stats, import acks — come back through `replies`), mark EOF
/// with finish_input(), and pull finished result lines with
/// poll_emittable(), which NEVER blocks. Single-threaded: every call
/// must come from the thread that made the first one (the event
/// server's reactor); a util::ThreadChecker aborts on a second thread.
/// The one exception is the ready list, which the jobs' completion hooks
/// fill from solver workers under its own mutex.
///
/// Emission contract (pinned by the transport-equality tests):
///   * stream mode — completion order; every rendered line of an
///     accepted job carries the next "seq" (contiguous from 0). Lines
///     that became ready before one poll_emittable call render in the
///     order their jobs finished, not in input order. A drain/shutdown/
///     export barrier waits until every entry before it has emitted;
///   * batch mode — nothing emits before finish_input(); afterwards
///     results render in input order (poll_emittable yields the maximal
///     finished prefix per call).
class StreamSessionCore {
 public:
  /// `notify` tells the driver that poll_emittable() may have lines (or
  /// the session may have drained). It runs on a solver worker inside a
  /// job's completion hook, or on the driver's own thread from on_line()
  /// and finish_input(), so it must be thread-safe, short and must not
  /// call back into this core.
  StreamSessionCore(SolveService& service, const SessionOptions& options,
                    std::function<void()> notify);
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

  /// True when input is finished and every accepted line has emitted.
  [[nodiscard]] bool drained() const;
  /// Accepted-but-unemitted lines (jobs and barriers) — nonzero while
  /// work is still in flight, whatever the mode.
  [[nodiscard]] std::size_t unemitted_count() const;
  /// Some line produced an error line.
  [[nodiscard]] bool any_error() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

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
