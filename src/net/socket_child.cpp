#include "net/socket_child.hpp"

#include "util/jsonl.hpp"

namespace saim::net {

SocketChild::SocketChild(const std::string& host, int port,
                         const std::string& auth_token)
    : ShardEndpoint(connect_to(host, port)) {
  if (!auth_token.empty()) {
    // The handshake must be the first line on the wire, ahead of any job
    // the caller queues; the server reads it before creating a session.
    util::JsonWriter hello;
    hello.field("auth", auth_token);
    conn_.send_line(hello.str());
    conn_.pump_writes();
  }
}

}  // namespace saim::net
