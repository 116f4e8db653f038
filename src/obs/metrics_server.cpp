#include "obs/metrics_server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/logging.hpp"

namespace saim::obs {

MetricsServer::MetricsServer(net::EventLoop& loop, const std::string& host,
                             int port, Producer producer)
    : loop_(loop), listener_(host, port), producer_(std::move(producer)) {
  loop_.add_fd(listener_.fd(), net::EventLoop::kRead,
               [this](std::uint32_t) { accept_pending(); });
}

MetricsServer::~MetricsServer() {
  loop_.remove_fd(listener_.fd());
  for (const auto& scrape : scrapes_) loop_.remove_fd(scrape.conn.fd());
}

void MetricsServer::accept_pending() {
  while (const auto fd = listener_.accept_fd()) {
    if (scrapes_.size() >= kMaxOpenScrapes) close_scrape(scrapes_.begin());
    scrapes_.push_back(Scrape{net::Connection(*fd)});
    const int key = *fd;
    loop_.add_fd(key, net::EventLoop::kRead,
                 [this, key](std::uint32_t) { on_scrape_event(key); });
  }
}

void MetricsServer::on_scrape_event(int fd) {
  const auto it =
      std::find_if(scrapes_.begin(), scrapes_.end(),
                   [fd](const Scrape& s) { return s.conn.fd() == fd; });
  if (it == scrapes_.end()) return;
  Scrape& scrape = *it;
  if (!scrape.responded) {
    // The request itself is ignored: every GET — whatever the path —
    // scrapes the same payload. Respond once the head's blank line, EOF
    // or the size cap arrives, whichever is first.
    bool head_done = false;
    for (const auto& line : scrape.conn.read_lines()) {
      scrape.head_bytes += line.size() + 1;
      head_done = head_done || line.empty() || line == "\r";
    }
    head_done = head_done || scrape.conn.eof() ||
                scrape.head_bytes + scrape.conn.inbound_partial_bytes() >=
                    kMaxHeadBytes;
    if (!head_done) return;
    respond(scrape);
  }
  scrape.conn.pump_writes();
  if (scrape.conn.broken() || scrape.conn.outbound_bytes() == 0) {
    close_scrape(it);
    return;
  }
  loop_.set_interest(fd, net::EventLoop::kWrite);
}

void MetricsServer::respond(Scrape& scrape) {
  scrape.responded = true;
  std::string body;
  const char* status = "200 OK";
  try {
    body = producer_();
  } catch (...) {
    status = "500 Internal Server Error";
    body = "metrics producer failed\n";
  }
  // The text format ends every line with a newline; holding the body to
  // that lets the response go out as one Connection line (whose newline
  // is the body's last byte) with an exact Content-Length.
  if (!body.empty() && body.back() != '\n') body += '\n';
  std::string response = "HTTP/1.0 ";
  response += status;
  response +=
      "\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
      "Content-Length: " +
      std::to_string(body.size()) +
      "\r\nConnection: close\r\n\r\n";
  response += body;
  response.pop_back();  // the '\n' send_line puts back
  scrape.conn.send_line(std::move(response));
}

void MetricsServer::close_scrape(std::deque<Scrape>::iterator it) {
  loop_.remove_fd(it->conn.fd());
  scrapes_.erase(it);  // the Connection closes its fd
}

std::unique_ptr<MetricsServer> serve_metrics(net::EventLoop& loop,
                                             const std::string& spec,
                                             const std::string& port_file,
                                             MetricsServer::Producer producer) {
  if (spec.empty()) return nullptr;
  const auto hostport = net::parse_hostport(spec);
  if (!hostport) {
    throw std::runtime_error("bad --metrics '" + spec + "' (want host:port)");
  }
  auto server = std::make_unique<MetricsServer>(
      loop, hostport->host, hostport->port, std::move(producer));
  net::write_port_file(port_file, server->port());
  util::log_info() << "metrics on " << hostport->host << ":"
                   << server->port();
  return server;
}

}  // namespace saim::obs
