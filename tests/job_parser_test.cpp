// Job-line and control-line rejections of the JSONL parser
// (service/job_parser), the one parser saim_serve and saim_shard share.
// Each row is one input line and a fragment its error text must carry.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "service/job_parser.hpp"
#include "util/jsonl.hpp"

namespace saim::service {
namespace {

/// The error the serving layer reports for `line`, or "" when the line
/// is accepted (as a control line or as a job).
std::string error_of(const std::string& line) {
  try {
    const util::JsonValue parsed = util::parse_json(line);
    if (!control_cmd(parsed)) (void)parse_job(parsed);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(JobParser, RejectsWithTheDocumentedError) {
  const std::string cap = std::to_string(kMaxGenSize);
  const std::string over = std::to_string(kMaxGenSize + 1);
  const struct {
    std::string line;
    std::string error;
  } cases[] = {
      // Gen specs: three plain decimal fields and nothing after them.
      {R"({"gen":"qkp:30-25-1junk"})", "bad gen spec 'qkp:30-25-1junk'"},
      {R"({"gen":"qkp:30-25-1-"})", "bad gen spec"},
      {R"({"gen":"qkp:30-25"})", "bad gen spec"},
      {R"({"gen":"qkp: 30-25-1"})", "bad gen spec"},
      {R"({"gen":"qkp:+30-25-1"})", "bad gen spec"},
      {R"({"gen":"qkp:30--25-1"})", "bad gen spec"},
      {R"({"gen":"qkp30-25-1"})", "bad gen spec"},
      // N (and M for mkp) are capped, so one line cannot exhaust memory.
      {R"({"gen":"qkp:)" + over + R"(-25-1"})", "N must be 1.." + cap},
      {R"({"gen":"qkp:0-25-1"})", "N must be 1.." + cap},
      {R"({"gen":"mkp:)" + over + R"(-5-1"})", "N must be 1.." + cap},
      {R"({"gen":"mkp:30-)" + over + R"(-1"})", "M must be 1.." + cap},
      {R"({"gen":"mkp:30-0-1"})", "M must be 1.." + cap},
      {R"({"gen":"tsp:30-25-1"})", "unknown type 'tsp'"},
      // A density is a percentage; a wider value would be narrowed onto
      // another spec's instance, as would a k an int cannot hold.
      {R"({"gen":"qkp:30-4294967321-1"})", "density must be 0..100"},
      {R"({"gen":"qkp:30-101-1"})", "density must be 0..100"},
      {R"({"gen":"qkp:30-25-4294967297"})", "k must be at most"},
      {R"({"gen":"mkp:30-3-4294967297"})", "k must be at most"},
      // Cross-job warm starts are gone: the key and both commands.
      {R"({"gen":"qkp:30-25-1","warm_start":true})",
       R"(unknown job field "warm_start")"},
      {R"({"cmd":"export_warm"})",
       R"(unknown control cmd "export_warm" (want ping, drain, shutdown, )"
       R"(stats or reshard))"},
      {R"({"cmd":"import_warm","warm":{}})",
       R"(unknown control cmd "import_warm")"},
      {R"({"cmd":"reshard","warm":{}})", R"(unknown control field "warm")"},
      {R"({"cmd":"ping","shards":2})",
       R"(control field "shards" does not belong on cmd "ping")"},
  };
  for (const auto& c : cases) {
    const std::string error = error_of(c.line);
    EXPECT_NE(error.find(c.error), std::string::npos)
        << c.line << " -> \"" << error << "\", want \"" << c.error << "\"";
  }
}

}  // namespace
}  // namespace saim::service
