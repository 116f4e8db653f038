// net::SocketChild — a shard reached over TCP.
//
// The socket twin of service::ProcessChild: where ProcessChild fork/execs
// a local `saim_serve --stream` and speaks through its pipes, SocketChild
// connects to a remote `saim_serve --listen <host:port>` (started by an
// operator on any machine) and speaks the identical line protocol
// through the same ShardEndpoint Connection. The ShardRouter cannot tell
// them apart — that is the point: `saim_shard --connect host:port` joins
// remote shards into the same consistent-hash ring as local forks.
//
// Death model: a closed/reset connection surfaces as eof(), feeding the
// same EOF-before-down failover path as a crashed local child. The
// Supervisor does not re-exec remote shards (it cannot); their jobs fail
// over to the survivors.
#pragma once

#include <string>

#include "net/shard_endpoint.hpp"

namespace saim::net {

class SocketChild : public ShardEndpoint {
 public:
  /// Connects to host:port. Throws std::runtime_error (with the endpoint
  /// in the message) when the connection cannot be established. A
  /// non-empty `auth_token` is presented as the session's first line
  /// ({"auth":"..."}) — required by servers started with --auth-token,
  /// which close unauthenticated sessions before reading any job.
  SocketChild(const std::string& host, int port,
              const std::string& auth_token = "");

  /// Closes the socket: eof() from here on.
  void terminate() override { conn_.close(); }
};

}  // namespace saim::net
