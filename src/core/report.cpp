#include "core/report.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/jsonl.hpp"

namespace saim::core {

namespace {

std::string format_double(double v, int precision = 6) {
  std::ostringstream os;
  os.precision(precision);
  os << v;
  return os.str();
}

}  // namespace

void write_report_header(util::CsvWriter& csv) {
  csv.write_header({"instance", "method", "best_accuracy", "avg_accuracy",
                    "feasibility", "best_cost", "reference_cost", "runs",
                    "total_mcs", "seconds", "tts99_mcs"});
}

void report_result(util::CsvWriter& csv, const ReportRow& row,
                   const SolveResult& result) {
  const double best_acc =
      result.found_feasible && row.reference_cost != 0.0
          ? accuracy_percent(result.best_cost, row.reference_cost)
          : 0.0;
  const double avg_acc =
      result.found_feasible && row.reference_cost != 0.0
          ? accuracy_percent(result.feasible_cost_stats.mean(),
                             row.reference_cost)
          : 0.0;

  std::string tts_field;
  if (!result.feasible_costs.empty() && result.total_runs > 0) {
    const double mcs_per_run =
        static_cast<double>(result.total_sweeps) /
        static_cast<double>(result.total_runs);
    // Success = a single measured sample reaching the reference; note the
    // per-sample (not per-solve) granularity, matching Fig. 4b's budget
    // accounting.
    std::size_t hits = 0;
    for (const double c : result.feasible_costs) {
      if (c <= row.reference_cost + 1e-9) ++hits;
    }
    const auto tts =
        time_to_solution(hits, result.total_runs, mcs_per_run);
    if (tts.defined) tts_field = format_double(tts.tts, 10);
  }

  csv.write_row({row.instance, row.method, format_double(best_acc),
                 format_double(avg_acc),
                 format_double(result.feasibility_rate()),
                 format_double(result.found_feasible ? result.best_cost : 0.0,
                               12),
                 format_double(row.reference_cost, 12),
                 std::to_string(result.total_runs),
                 std::to_string(result.total_sweeps),
                 format_double(row.seconds), tts_field});
}

std::string result_to_jsonl(const SolveResult& result,
                            const JsonlContext& context) {
  char fingerprint_hex[19];
  std::snprintf(fingerprint_hex, sizeof fingerprint_hex, "%016llx",
                static_cast<unsigned long long>(context.fingerprint));

  util::JsonWriter json;
  // One result line is ~350 bytes; a single up-front block keeps the
  // serving path at one allocation per line (it matters: the event
  // server renders every reply through here).
  json.reserve(512);
  json.field("id", context.id)
      .field("instance", context.instance)
      .field("backend", context.backend)
      .field("status", to_string(result.status))
      .field("found_feasible", result.found_feasible);
  if (result.found_feasible) {
    json.field("best_cost", result.best_cost);
  } else {
    json.raw_field("best_cost", "null");
  }
  json.field("feasible_count",
             static_cast<std::uint64_t>(result.feasible_count))
      .field("feasibility_rate", result.feasibility_rate());
  if (result.first_feasible_iter) {
    json.field("first_feasible_iter",
               static_cast<std::uint64_t>(*result.first_feasible_iter));
  } else {
    json.raw_field("first_feasible_iter", "null");
  }
  json.field("final_max_violation", result.final_max_violation)
      .field("lambda_l1", result.lambda_l1)
      .field("iterations", static_cast<std::uint64_t>(result.total_runs))
      .field("total_sweeps", static_cast<std::uint64_t>(result.total_sweeps))
      .field("wall_ms", context.wall_ms)
      .field("cache_hit", context.cache_hit)
      .field("fingerprint", fingerprint_hex)
      .field("batch_size", std::uint64_t{1});
  if (context.trace) {
    // Nested object, and strictly before seq: remap_seq (shard_router)
    // rewrites the `,"seq":N}` suffix in place and would corrupt any
    // field emitted after it.
    util::JsonWriter timing;
    timing.field("queue_ms", context.queue_ms)
        .field("setup_ms", context.setup_ms)
        .field("solve_ms", context.solve_ms)
        .field("emit_ms", context.emit_ms)
        .field("total_ms", context.total_ms)
        .field("e2e_ms", context.e2e_ms);
    json.raw_field("timing", timing.str());
  }
  if (context.seq >= 0) json.field("seq", context.seq);
  return json.take();
}

}  // namespace saim::core
