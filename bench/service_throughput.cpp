// Service-layer throughput bench: the cache hit-rate of SolveService when
// a mixed QKP/MKP job stream repeats itself, plus the same stream through
// the sharded front door. Every phase records
// per-job end-to-end latency into an obs::Histogram and reports
// count/mean/p50/p95/p99; every phase is closed-loop (each wave submits
// everything then waits). The open-loop view of the TCP front door is
// perfbench's online_tiny workload. Writes BENCH_service.json.
//
// Phases:
//   * cache — the same mixed stream submitted twice through a caching
//     service: the second wave is pure cache hits, and the measured
//     hit-rate and hit-serving throughput quantify what the cache buys.
//   * sharded — the same mixed stream as JSONL lines through the
//     multi-process front door (service/shard_router + service/Supervisor
//     — the pump saim_shard ships — over saim_serve children, 1 worker
//     each, on fork/exec pipes) at 1/2/4 shards. Throughput should scale
//     with shard count on multicore boxes (`hardware_threads` is recorded
//     so a 1-core box explains itself). Skipped (and marked so in the
//     JSON) when the saim_serve binary is not next to the bench.
//
// The sharded phase runs the Supervisor with respawn and health pings
// off, and attaches its children before the timer starts.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "problems/mkp.hpp"
#include "problems/qkp.hpp"
#include "service/service_stats.hpp"
#include "service/request_builders.hpp"
#include "service/shard_router.hpp"
#include "service/solve_service.hpp"
#include "service/supervisor.hpp"
#include "util/cli.hpp"
#include "util/jsonl.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace {

using namespace saim;

/// One reusable request skeleton per instance (shared problem handle +
/// evaluator); copied and specialized per submission.
std::vector<service::SolveRequest> make_mixed_stream(std::size_t instances,
                                                     std::size_t n) {
  std::vector<service::SolveRequest> templates;
  for (std::size_t i = 0; i < instances; ++i) {
    if (i % 2 == 0) {
      templates.push_back(
          service::request_for(std::make_shared<problems::QkpInstance>(
              problems::make_paper_qkp(n, 25, static_cast<int>(i / 2 + 1)))));
    } else {
      templates.push_back(
          service::request_for(std::make_shared<problems::MkpInstance>(
              problems::make_paper_mkp(n, 5, static_cast<int>(i / 2 + 1)))));
    }
  }
  return templates;
}

service::SolveRequest make_request(const service::SolveRequest& base,
                                   std::size_t iterations,
                                   std::size_t sweeps) {
  service::SolveRequest request = base;
  request.backend.sweeps = sweeps;
  request.options.iterations = iterations;
  return request;
}

/// Submits `jobs` requests cycling through the templates (one seed, so
/// the stream repeats itself) and waits for all; returns wall seconds.
double run_wave(service::SolveService& svc,
                const std::vector<service::SolveRequest>& templates,
                std::size_t jobs, std::size_t iterations, std::size_t sweeps,
                obs::Histogram& latency) {
  std::vector<service::JobHandle> handles;
  handles.reserve(jobs);
  util::WallTimer timer;
  for (std::size_t j = 0; j < jobs; ++j) {
    handles.push_back(svc.submit(
        make_request(templates[j % templates.size()], iterations, sweeps)));
  }
  for (auto& h : handles) {
    latency.observe(h.wait()->timing.total_ms);
  }
  return timer.seconds();
}

/// The mixed stream as PROTOCOL.md job lines (distinct ids and seeds, no
/// caching) for the sharded phase.
std::vector<std::string> make_job_lines(std::size_t jobs,
                                        std::size_t instances, std::size_t n,
                                        std::size_t iterations,
                                        std::size_t sweeps) {
  std::vector<std::string> lines;
  lines.reserve(jobs);
  for (std::size_t j = 0; j < jobs; ++j) {
    const std::size_t i = j % instances;
    const std::string gen =
        i % 2 == 0 ? "qkp:" + std::to_string(n) + "-25-" +
                         std::to_string(i / 2 + 1)
                   : "mkp:" + std::to_string(n) + "-5-" +
                         std::to_string(i / 2 + 1);
    util::JsonWriter line;
    line.field("id", "j" + std::to_string(j))
        .field("gen", gen)
        .field("iterations", static_cast<std::uint64_t>(iterations))
        .field("sweeps", static_cast<std::uint64_t>(sweeps))
        .field("seed", static_cast<std::uint64_t>(j + 1))
        .field("cache", false);
    lines.push_back(line.str());
  }
  return lines;
}

/// A fixed fleet: children are `saim_serve --stream`, 1 worker, cache
/// off; nothing is respawned or pinged (see the header).
service::SupervisorOptions fixed_fleet_options(const std::string& serve) {
  service::SupervisorOptions options;
  options.local_argv = {serve, "--stream", "--workers", "1", "--cache", "0"};
  options.respawn = false;
  options.ping_ms = 0;
  return options;
}

/// Routes `lines` through a fixed fleet of `shards` forked children.
/// Returns wall seconds, or a negative value when any job failed.
double run_sharded_wave(const std::string& serve, std::size_t shards,
                        const std::vector<std::string>& lines,
                        obs::HistogramSnapshot* latency) {
  service::RouterOptions router_options;
  router_options.shards = shards;
  service::ShardRouter router(router_options);
  service::Supervisor fleet(router, fixed_fleet_options(serve));
  try {
    for (std::size_t s = 0; s < shards; ++s) fleet.attach_local(s);
  } catch (const std::exception&) {
    return -1.0;
  }

  util::WallTimer timer;
  std::size_t line_no = 0;
  std::size_t emitted = 0;
  for (const auto& line : lines) {
    emitted += router.accept_line(line, ++line_no).size();
  }
  while (!router.idle()) {
    emitted += fleet.pump(2).size();
    if (router.live_shards() == 0) break;
    if (timer.seconds() > 300.0) return -1.0;  // wedged child: fail loudly
  }
  const double seconds = timer.seconds();
  // Per-shard round trips merged into one phase-level distribution.
  for (std::size_t s = 0; s < router.shard_slots(); ++s) {
    latency->merge(router.latency_snapshot(s));
  }
  if (router.any_error() || emitted != lines.size()) return -1.0;
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_service_throughput",
                       "SolveService cache hit-rate and sharded jobs/sec");
  args.add_flag("jobs", "jobs per measured wave", "24")
      .add_flag("instances", "distinct instances in the mixed stream", "6")
      .add_flag("n", "instance size (QKP items / MKP items)", "50")
      .add_flag("iterations", "SAIM outer iterations per job", "30")
      .add_flag("sweeps", "MCS per inner run", "200")
      .add_flag("serve",
                "saim_serve binary for the sharded phase (skipped when "
                "missing)",
                "./saim_serve")
      .add_flag("out", "output JSON path", "BENCH_service.json");
  if (!args.parse(argc, argv)) return args.error().empty() ? 0 : 2;

  const auto positive = [&](const char* flag) {
    const std::int64_t v = args.get_int(flag);
    if (v <= 0) {
      std::fprintf(stderr, "--%s must be positive (got %lld)\n", flag,
                   static_cast<long long>(v));
      std::exit(2);
    }
    return static_cast<std::size_t>(v);
  };
  const auto jobs = positive("jobs");
  const auto instances = positive("instances");
  const auto n = positive("n");
  const auto iterations = positive("iterations");
  const auto sweeps = positive("sweeps");

  const auto templates = make_mixed_stream(instances, n);
  std::printf("service_throughput: %zu jobs over %zu instances (n=%zu, "
              "%zu iter x %zu MCS), %zu hardware threads\n",
              jobs, instances, n, iterations, sweeps,
              util::hardware_threads());

  // ---------------------------------------------------------- cache phase
  service::ServiceOptions cache_options;
  cache_options.workers = 4;
  cache_options.cache_capacity = 256;
  service::SolveService cached(cache_options);
  obs::Histogram cache_latency;  // both waves: misses cold, hits warm
  const double cold_seconds =
      run_wave(cached, templates, jobs, iterations, sweeps, cache_latency);
  const double warm_seconds =
      run_wave(cached, templates, jobs, iterations, sweeps, cache_latency);
  const auto stats = cached.stats();
  const double hit_rate = stats.cache.hit_rate();
  std::printf("  mixed stream x2: cold %.2fs, warm %.2fs, cache hit-rate "
              "%.2f (%llu coalesced)\n",
              cold_seconds, warm_seconds, hit_rate,
              static_cast<unsigned long long>(stats.coalesced));

  util::JsonWriter cache_json;
  cache_json.field("hit_rate", hit_rate)
      .field("cold_seconds", cold_seconds)
      .field("warm_seconds", warm_seconds)
      .field("warm_jobs_per_sec",
             warm_seconds > 0 ? static_cast<double>(jobs) / warm_seconds
                              : 0.0)
      .field("coalesced", stats.coalesced)
      .field("hits", stats.cache.hits)
      .field("misses", stats.cache.misses)
      .raw_field("latency",
                 service::latency_quantiles_json(cache_latency.snapshot()));

  // -------------------------------------------------------- sharded phase
  // The same mixed stream through the multi-process front door at growing
  // shard counts (1 solver worker per shard, cache off): jobs/sec should
  // grow with shards up to the core count.
  const std::string serve = args.get("serve");
  util::JsonWriter sharded_json;
  if (::access(serve.c_str(), X_OK) != 0) {
    std::printf("  sharded: skipped ('%s' not executable)\n", serve.c_str());
    sharded_json.field("skipped", true);
  } else {
    const auto lines = make_job_lines(jobs, instances, n, iterations, sweeps);
    const std::size_t shard_counts[] = {1, 2, 4};
    double pipe_jps[3] = {0, 0, 0};
    std::string rows = "[";
    for (std::size_t i = 0; i < 3; ++i) {
      obs::HistogramSnapshot latency;
      const double seconds =
          run_sharded_wave(serve, shard_counts[i], lines, &latency);
      pipe_jps[i] = seconds > 0 ? static_cast<double>(jobs) / seconds : 0.0;
      std::printf("  pipe   %zu shard%s: %6.2f jobs/sec (%.2fs, round-trip "
                  "p50/p95 %.0f/%.0f ms)\n",
                  shard_counts[i], shard_counts[i] == 1 ? " " : "s",
                  pipe_jps[i], seconds, latency.quantile(0.50),
                  latency.quantile(0.95));
      util::JsonWriter row;
      row.field("transport", "pipe")
          .field("shards", static_cast<std::uint64_t>(shard_counts[i]))
          .field("jobs_per_sec", pipe_jps[i])
          .field("seconds", seconds)
          .raw_field("latency", service::latency_quantiles_json(latency));
      rows += (i ? "," : "") + row.str();
    }
    rows += "]";
    const double scaling = pipe_jps[0] > 0 ? pipe_jps[1] / pipe_jps[0] : 0.0;
    std::printf("  shard scaling 1 -> 2 (pipe): %.2fx\n", scaling);
    sharded_json.field("skipped", false)
        .raw_field("shards", rows)
        .field("scaling_1_to_2", scaling);
  }

  util::JsonWriter doc;
  doc.field("bench", "service_throughput")
      .field("jobs", static_cast<std::uint64_t>(jobs))
      .field("instances", static_cast<std::uint64_t>(instances))
      .field("n", static_cast<std::uint64_t>(n))
      .field("iterations", static_cast<std::uint64_t>(iterations))
      .field("sweeps", static_cast<std::uint64_t>(sweeps))
      .field("hardware_threads",
             static_cast<std::uint64_t>(util::hardware_threads()))
      .raw_field("cache", cache_json.str())
      .raw_field("sharded", sharded_json.str());

  const std::string out_path = args.get("out");
  std::ofstream out(out_path);
  out << doc.str() << "\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
