// Line framing over raw stream fds — the byte-level half of the JSONL
// transports, shared by the pipe transport (service/ProcessChild) and the
// TCP transport (net/Connection) so both frame lines identically.
//
// The protocol is newline-delimited: a line is every byte up to (not
// including) '\n'. Stream fds deliver arbitrary fragments — a read may
// return half a line, three lines and a half, or one byte — so LineFramer
// accumulates bytes and surfaces only complete lines. For shard replies
// (ProcessChild, SocketChild) a trailing half-line at EOF is dropped: the
// child died mid-write, and a partial JSON object is garbage by
// definition. A request stream's last line may lack its '\n', so
// net::Connection can hand that one over at an orderly EOF instead.
//
// The fd helpers wrap the non-blocking read/write dance (EAGAIN, EINTR,
// EPIPE/ECONNRESET) into small enums so the transports share one
// correctness story instead of two copies of errno handling.
#pragma once

#include <string>
#include <vector>

namespace saim::net {

/// Accumulates stream fragments and yields complete '\n'-terminated
/// lines (without the newline). Bytes after the last newline stay
/// buffered until more arrive.
class LineFramer {
 public:
  /// Appends `size` raw bytes from the stream.
  void feed(const char* data, std::size_t size);

  /// Extracts every complete line buffered so far, in arrival order.
  std::vector<std::string> take_lines();

  /// Bytes buffered past the last complete line.
  [[nodiscard]] std::size_t partial_bytes() const noexcept {
    return buffer_.size();
  }

 private:
  std::string buffer_;
};

enum class ReadStatus {
  kOk,      ///< drained what was available (possibly nothing: EAGAIN)
  kEof,     ///< orderly end of stream (read returned 0)
  kError,   ///< connection reset or another hard error
};

enum class WriteStatus {
  kOk,      ///< everything accepted
  kBlocked, ///< kernel buffer full (EAGAIN); bytes remain in `buffer`
  kBroken,  ///< EPIPE/ECONNRESET or another hard error; peer is gone
};

/// Reads whatever `fd` has (non-blocking loop until EAGAIN/EOF), feeding
/// every byte into `framer`.
ReadStatus read_available(int fd, LineFramer& framer);

/// Writes as much of `buffer` as `fd` accepts right now, erasing the
/// accepted prefix.
WriteStatus write_some(int fd, std::string& buffer);

/// Ignores SIGPIPE process-wide, once: a peer that vanished between our
/// poll and our write must surface as WriteStatus::kBroken (EPIPE), not
/// kill the process. Installed by every transport constructor.
void ignore_sigpipe_once();

}  // namespace saim::net
