// Session-level observability tests (ISSUE 7): the {"cmd":"stats"}
// control line returning one service snapshot, the "trace":true per-job
// timing echo, and the service_stats JSON/Prometheus renderers over a
// live SolveService.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "service/event_server.hpp"
#include "service/service_stats.hpp"
#include "service/solve_service.hpp"
#include "util/jsonl.hpp"

namespace saim::service {
namespace {

std::string job_line(const std::string& id, std::uint64_t seed,
                     bool trace = false) {
  return "{\"id\":\"" + id +
         "\",\"gen\":\"qkp:30-25-1\",\"iterations\":2,\"sweeps\":20,"
         "\"seed\":" + std::to_string(seed) +
         (trace ? ",\"trace\":true}" : "}");
}

/// Runs one whole session on the fd-pair EventServer (saim_serve's
/// stdin/stdout driver) over two temp files and returns output lines.
std::vector<std::string> run_session(SolveService& service,
                                     const std::string& input,
                                     bool stream = true) {
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  EXPECT_TRUE(in && out);
  std::fwrite(input.data(), 1, input.size(), in);
  std::rewind(in);  // flushes; the server's dup shares this offset
  EventServerOptions options;
  options.session.stream = stream;
  EventServer(service, ::dup(::fileno(in)), ::dup(::fileno(out)), options)
      .run();
  std::rewind(out);
  std::string text;
  char chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, out)) > 0) {
    text.append(chunk, n);
  }
  std::fclose(in);
  std::fclose(out);
  std::vector<std::string> lines;
  std::istringstream parse(text);
  std::string line;
  while (std::getline(parse, line)) lines.push_back(line);
  return lines;
}

const util::JsonValue* find_line_with(const std::vector<std::string>& lines,
                                      const std::string& field,
                                      util::JsonValue* storage) {
  for (const auto& line : lines) {
    *storage = util::parse_json(line);
    if (storage->find(field)) return storage;
  }
  return nullptr;
}

TEST(StreamSessionStats, StatsCmdReturnsOneServiceSnapshot) {
  ServiceOptions options;
  options.workers = 1;
  SolveService service(options);
  // stats answers immediately on read (it is a probe, not a barrier), so
  // run the jobs to completion in one session, then ask in a second one
  // over the same service.
  (void)run_session(service, job_line("a", 1) + "\n" + job_line("b", 2) +
                                 "\n");
  const auto lines =
      run_session(service, R"({"cmd":"stats","id":"s1"})" + std::string("\n"));

  util::JsonValue parsed;
  const auto* stats = find_line_with(lines, "service", &parsed);
  ASSERT_NE(stats, nullptr) << "no stats reply in the session output";
  EXPECT_EQ(stats->find("id")->as_string(), "s1");

  const auto* service_obj = stats->find("service");
  EXPECT_GE(service_obj->find("submitted")->as_int(), 2);
  EXPECT_GE(service_obj->find("completed")->as_int(), 2);
  const auto* never_feasible = service_obj->find("never_feasible");
  ASSERT_NE(never_feasible, nullptr);
  EXPECT_LE(never_feasible->as_int(), service_obj->find("completed")->as_int());
  EXPECT_NE(service_obj->find("workers"), nullptr);

  const auto* cache = service_obj->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_NE(cache->find("hit_rate"), nullptr);
  EXPECT_NE(cache->find("size"), nullptr);

  // Per-stage latency quantiles, fed by the finished jobs above.
  const auto* latency = service_obj->find("latency");
  ASSERT_NE(latency, nullptr);
  for (const char* stage : {"queue_ms", "setup_ms", "solve_ms", "total_ms"}) {
    const auto* obj = latency->find(stage);
    ASSERT_NE(obj, nullptr) << stage;
    EXPECT_GE(obj->find("count")->as_int(), 2) << stage;
    EXPECT_GE(obj->find("p95_ms")->as_double(),
              obj->find("p50_ms")->as_double())
        << stage;
  }
}

TEST(StreamSessionStats, TraceEchoesATimingObjectOnlyWhenAsked) {
  ServiceOptions options;
  options.workers = 1;
  SolveService service(options);
  const auto lines = run_session(
      service, job_line("traced", 1, /*trace=*/true) + "\n" +
                   job_line("plain", 2) + "\n");

  bool saw_traced = false;
  bool saw_plain = false;
  for (const auto& line : lines) {
    const auto v = util::parse_json(line);
    if (!v.find("id")) continue;
    if (v.find("id")->as_string() == "traced") {
      saw_traced = true;
      const auto* timing = v.find("timing");
      ASSERT_NE(timing, nullptr) << line;
      const double queue = timing->find("queue_ms")->as_double();
      const double setup = timing->find("setup_ms")->as_double();
      const double solve = timing->find("solve_ms")->as_double();
      const double emit = timing->find("emit_ms")->as_double();
      const double total = timing->find("total_ms")->as_double();
      const double e2e = timing->find("e2e_ms")->as_double();
      EXPECT_GE(queue, 0.0);
      EXPECT_GE(setup, 0.0);
      EXPECT_GT(solve, 0.0);
      EXPECT_GE(emit, 0.0);
      // Stages nest inside the submit->response total.
      EXPECT_LE(solve, total + 1e-6);
      EXPECT_LE(queue + setup + solve, total + 1.0);
      // e2e_ms is the whole of it: submit -> line rendered.
      EXPECT_NEAR(e2e, total + emit, 1e-3);
      // "timing" must precede "seq": the shard router remaps seq by
      // rewriting the line's ,"seq":N} tail.
      EXPECT_LT(line.find("\"timing\""), line.find("\"seq\"")) << line;
    }
    if (v.find("id")->as_string() == "plain") {
      saw_plain = true;
      EXPECT_EQ(v.find("timing"), nullptr)
          << "untraced lines must stay byte-identical to PR 4 output";
    }
  }
  EXPECT_TRUE(saw_traced);
  EXPECT_TRUE(saw_plain);
}

TEST(StreamSessionStats, PrometheusRenderCoversServiceCountersAndLatency) {
  ServiceOptions options;
  options.workers = 1;
  SolveService service(options);
  (void)run_session(service, job_line("a", 1) + "\n");

  const std::string text = service_metrics_prometheus(service);
  EXPECT_NE(text.find("# TYPE saim_jobs_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("saim_jobs_submitted_total 1"), std::string::npos);
  EXPECT_NE(text.find("saim_jobs_completed_total 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE saim_jobs_never_feasible_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE saim_workers gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE saim_job_total_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("saim_job_total_ms_count 1"), std::string::npos);
  EXPECT_NE(text.find("saim_emit_ms_count 1"), std::string::npos)
      << "the session must record its emit delay on the service registry";
}

}  // namespace
}  // namespace saim::service
