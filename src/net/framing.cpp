#include "net/framing.hpp"

#include <signal.h>

#include <mutex>

namespace saim::net {

void ignore_sigpipe_once() {
  static std::once_flag once;
  std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

void LineFramer::feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
}

std::vector<std::string> LineFramer::take_lines() {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = buffer_.find('\n', start);
    if (nl == std::string::npos) break;
    lines.push_back(buffer_.substr(start, nl - start));
    start = nl + 1;
  }
  buffer_.erase(0, start);
  return lines;
}

}  // namespace saim::net
