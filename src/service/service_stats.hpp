// Service observability snapshots — the two read-side renderings of one
// SolveService's counters, cache statistics and latency histograms:
//
//   * service_stats_json():      the {"cmd":"stats"} control line's
//                                "service" payload (docs/PROTOCOL.md),
//   * service_metrics_prometheus(): the --metrics endpoint's text
//                                exposition (format 0.0.4).
//
// Both read only atomics and the mutex-guarded registry, so they are safe
// to call from any thread (the reactor serving a --metrics scrape
// included) while workers run. scripts/check_protocol_docs.sh greps this
// module's .cpp for emitted field names — keep docs/PROTOCOL.md in
// lockstep.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "service/solve_service.hpp"

namespace saim::service {

/// {"count":N,"mean_ms":..,"p50_ms":..,"p95_ms":..,"p99_ms":..} for one
/// latency histogram snapshot. Quantiles are log-bucket interpolations
/// (obs::HistogramSnapshot::quantile); all zero when nothing was observed.
std::string latency_quantiles_json(const obs::HistogramSnapshot& snap);

/// One service's full stats snapshot as a JSON object: lifetime job
/// counters, cache statistics, worker count, and per-stage
/// latency quantiles (queue/setup/solve/total, plus emit when the serving
/// layer has registered it).
std::string service_stats_json(const SolveService& service);

/// Prometheus text exposition for one service: saim_jobs_*_total and
/// saim_cache_* series derived from SolveService::Stats, gauges for the
/// cache and worker sizes, then every histogram in the service registry
/// (saim_job_queue_ms, saim_job_setup_ms, saim_job_solve_ms,
/// saim_job_total_ms, saim_emit_ms, ...).
std::string service_metrics_prometheus(const SolveService& service);

}  // namespace saim::service
