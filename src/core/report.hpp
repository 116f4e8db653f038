// Result reporting: serializes SolveResult summaries (accuracy, feasibility,
// sample budget, TTS) into CSV rows so experiment campaigns can be archived
// and diffed. Used by the bench harnesses' --csv modes and by downstream
// users building their own sweeps.
#pragma once

#include <string>

#include "core/result.hpp"
#include "core/tts.hpp"
#include "util/csv.hpp"

namespace saim::core {

struct ReportRow {
  std::string instance;  ///< e.g. "300-50-8"
  std::string method;    ///< e.g. "saim-pbit"
  double reference_cost = 0.0;  ///< OPT or best-known (negative)
  double seconds = 0.0;         ///< wall time of the solve
};

/// Writes the CSV header matching report_result() rows.
void write_report_header(util::CsvWriter& csv);

/// One row: instance, method, best/avg accuracy, feasibility, runs, MCS,
/// seconds, TTS(99) in MCS (inf -> empty field). TTS uses the per-run MCS
/// and the reference cost as the success target; it is only computed when
/// the result carries per-sample feasible costs.
void report_result(util::CsvWriter& csv, const ReportRow& row,
                   const SolveResult& result);

/// Serving-side metadata accompanying one JSONL result line.
struct JsonlContext {
  std::string id;        ///< job id echoed from the request line
  std::string instance;  ///< instance name / path
  std::string backend;   ///< backend name the job ran on
  double wall_ms = 0.0;
  bool cache_hit = false;
  std::uint64_t fingerprint = 0;
  /// Per-stage latency echo, emitted as a nested "timing" object only
  /// when the job line set "trace": true. Kept BEFORE seq in the output:
  /// the shard router's seq remap expects `,"seq":N}` to be the line's
  /// tail. Milliseconds throughout.
  bool trace = false;
  double queue_ms = 0.0;  ///< accept/submit -> worker claim
  double setup_ms = 0.0;  ///< claim -> solve start (model lookup or build)
  double solve_ms = 0.0;  ///< solve start -> solve end
  double emit_ms = 0.0;   ///< response ready -> line rendered
  double total_ms = 0.0;  ///< submit -> response ready
  double e2e_ms = 0.0;    ///< submit -> line rendered (total + emit)
  /// Emission sequence number; emitted only when >= 0 (saim_serve
  /// --stream tags lines in completion order).
  std::int64_t seq = -1;
};

/// One-line JSON summary of a solve — the line format saim_serve streams
/// and bench/service_throughput aggregates: id, instance, backend, status,
/// found_feasible, best_cost (null when no feasible sample), feasible
/// count and rate, the SAIM signals (first_feasible_iter, null when never
/// feasible; final_max_violation; lambda_l1), iterations (outer runs),
/// total MCS, wall time, cache_hit, the
/// request fingerprint (hex), batch_size (always 1: every job runs alone;
/// kept for clients that read it), and (stream mode only) seq. The full
/// schema lives in docs/PROTOCOL.md — keep the two in lockstep, CI greps
/// the doc for every field emitted here. No trailing newline.
std::string result_to_jsonl(const SolveResult& result,
                            const JsonlContext& context);

}  // namespace saim::core
