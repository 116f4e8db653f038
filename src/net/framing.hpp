// Line framing for stream bytes — the byte-level half of the JSONL
// transport (net/Connection), which every shard's pipes, every --listen
// connection and the stdio session speak through.
//
// The protocol is newline-delimited: a line is every byte up to (not
// including) '\n'. Stream fds deliver arbitrary fragments — a read may
// return half a line, three lines and a half, or one byte — so LineFramer
// accumulates bytes and surfaces only complete lines. For shard replies
// (ProcessChild) a trailing half-line at EOF is dropped: the
// child died mid-write, and a partial JSON object is garbage by
// definition. A request stream's last line may lack its '\n', so
// net::Connection can hand that one over at an orderly EOF instead.
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

/// Ignores SIGPIPE process-wide, once: a peer that vanished between our
/// poll and our write must surface as an EPIPE write error, not kill
/// the process. Installed by every transport constructor.
void ignore_sigpipe_once();

}  // namespace saim::net
