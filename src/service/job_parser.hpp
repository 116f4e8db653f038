// Job-line parsing for the JSONL serving protocol (docs/PROTOCOL.md),
// shared by every process that speaks it: tools/saim_serve parses lines it
// will submit to its own SolveService, and tools/saim_shard parses the
// same lines to validate them and compute the problem fingerprint it
// routes by — so a line rejected by the front door is rejected with the
// exact error text the shard would have produced.
//
// Also home to the control-line dialect ({"cmd":"ping"|"drain"|...}): control
// lines are answered by the serving layer itself, never become jobs, and
// never consume completion-order sequence numbers.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "service/solve_service.hpp"
#include "util/jsonl.hpp"

namespace saim::service {

/// Largest N (and, for MKP, M) a "gen" spec may name. A QKP spec builds an
/// N x N instance matrix and the process memoizes 16 specs, so an unbounded
/// N on one job line could exhaust the server's memory. Every spec the
/// tests, benches and workloads use has N <= 200.
inline constexpr std::size_t kMaxGenSize = 1000;

struct ParsedJob {
  /// Ready-to-submit request; tag is the line's "id" ("" when absent).
  SolveRequest request;
  /// Instance display name (generated spec or file-derived).
  std::string instance;
};

/// Validates a job object's shape without building its instance: unknown
/// keys, scalar field types/ranges, priority, and that an instance source
/// is named (gen, or path with a resolvable type). Throws
/// std::runtime_error like parse_job; building the source can still fail
/// later (bad gen spec, unreadable file). Lets a router re-check instance
/// twins cheaply when the expensive instance build is memoized.
void validate_job(const util::JsonValue& job);

/// Parses one JSONL job object into a ready-to-submit request
/// (validate_job + instance build + extraction). A "gen" instance is
/// built once per process and spec: every line naming that spec shares
/// one problem and evaluator. A "path" instance is loaded per line.
/// Throws std::runtime_error on unknown fields, bad values, a malformed
/// gen spec (trailing input, N or M outside 1..kMaxGenSize), or a
/// missing/unloadable instance source.
ParsedJob parse_job(const util::JsonValue& job);

/// Convenience: parse_json + parse_job (also throws on malformed JSON).
ParsedJob parse_job_line(const std::string& line);

/// Control-line detection. Returns the command ("ping", "drain",
/// "shutdown", "stats" or "reshard") when `line` is a control object,
/// std::nullopt when it is a plain job. Throws std::runtime_error on an
/// unknown command or stray keys (control lines accept "cmd" and "id",
/// plus "shards" on reshard). Which layer answers which command is the
/// serving layer's business: saim_serve handles everything but reshard,
/// the saim_shard front door handles reshard/shutdown itself and forwards
/// nothing.
std::optional<std::string> control_cmd(const util::JsonValue& line);

/// Stable key naming the job's instance source before any instance is
/// built: "gen:<spec>" for generated instances, "file:<type>|<format>|
/// <path>" (with the same type/format defaulting parse_job applies) for
/// file-backed ones. Jobs with equal keys build content-identical
/// problems, so a router can memoize the problem fingerprint per key.
/// Empty when the line names no source (parse_job would reject it).
std::string instance_source_key(const util::JsonValue& job);

}  // namespace saim::service
