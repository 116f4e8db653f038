#include "service/job_parser.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "problems/mkp.hpp"
#include "problems/qkp.hpp"
#include "service/request_builders.hpp"
#include "util/mutex.hpp"
#include "util/small_lru.hpp"
#include "util/thread_annotations.hpp"

namespace saim::service {

namespace {

// Every key a job line may carry. A misspelled key ("iteration", "sweep")
// would otherwise silently run the job with defaults; hand-written job
// files deserve a hard error. scripts/check_protocol_docs.sh greps this
// block, so docs/PROTOCOL.md must document every name listed here.
const std::set<std::string>& known_keys() {
  static const std::set<std::string> kKnownKeys = {
      "id",         "type",      "path",          "format",
      "gen",        "backend",   "sweeps",        "beta_max",
      "iterations", "eta",       "penalty_alpha", "seed",
      "replicas",   "priority",  "deadline_ms",   "cache",
      "trace"};
  return kKnownKeys;
}

// Keys a control line may carry (gate-checked like kKnownKeys above).
// "shards" rides only on reshard; control_cmd() enforces that split.
const std::set<std::string>& control_keys() {
  static const std::set<std::string> kControlKeys = {"cmd", "id", "shards"};
  return kControlKeys;
}

// Every control command, in the order the error text lists them
// (gate-checked like kKnownKeys above).
constexpr std::string_view kCommands[] = {"ping", "drain", "shutdown",
                                          "stats", "reshard"};

/// "unknown control cmd" error text, its "(want ...)" list built from
/// kCommands so the two cannot drift.
std::string unknown_cmd_error(const std::string& name) {
  std::string text = "unknown control cmd \"" + name + "\" (want ";
  for (std::size_t i = 0; i < std::size(kCommands); ++i) {
    if (i > 0) text += i + 1 == std::size(kCommands) ? " or " : ", ";
    text += kCommands[i];
  }
  return text + ")";
}

/// "qkp:100-25-1" -> generated paper instance. Throws on a malformed spec:
/// each of the three fields is plain decimal digits, nothing may follow
/// the third, N (and M for mkp) lies in 1..kMaxGenSize, the qkp density
/// is a percentage and k fits an int (a wider value would be narrowed
/// onto another spec's instance).
SolveRequest build_gen_request(const std::string& spec) {
  const auto bad = [&spec](const std::string& why) {
    return std::runtime_error("bad gen spec '" + spec + "'" + why);
  };
  const auto colon = spec.find(':');
  if (colon == std::string::npos) {
    throw bad(" (want qkp:N-density-k or mkp:N-M-k)");
  }
  const std::string kind = spec.substr(0, colon);
  std::array<std::size_t, 3> fields{};
  const char* p = spec.data() + colon + 1;
  const char* const end = spec.data() + spec.size();
  bool ok = true;
  for (std::size_t i = 0; ok && i < fields.size(); ++i) {
    if (i > 0) ok = p != end && *p++ == '-';
    if (!ok) break;
    const auto [next, ec] = std::from_chars(p, end, fields[i]);
    ok = ec == std::errc{};
    p = next;
  }
  if (!ok || p != end) throw bad(" (want qkp:N-density-k or mkp:N-M-k)");
  const auto [a, b, c] = fields;
  if (a == 0 || a > kMaxGenSize) {
    throw bad(": N must be 1.." + std::to_string(kMaxGenSize));
  }
  if (c > static_cast<std::size_t>(std::numeric_limits<int>::max())) {
    throw bad(": k must be at most " +
              std::to_string(std::numeric_limits<int>::max()));
  }
  SolveRequest request;
  if (kind == "qkp") {
    if (b > 100) throw bad(": density must be 0..100");
    request = request_for(std::make_shared<problems::QkpInstance>(
        problems::make_paper_qkp(a, static_cast<int>(b),
                                 static_cast<int>(c))));
  } else if (kind == "mkp") {
    if (b == 0 || b > kMaxGenSize) {
      throw bad(": M must be 1.." + std::to_string(kMaxGenSize));
    }
    request = request_for(std::make_shared<problems::MkpInstance>(
        problems::make_paper_mkp(a, b, static_cast<int>(c))));
  } else {
    throw bad(": unknown type '" + kind + "'");
  }
  return request;
}

/// Lowered gen requests by spec, most recently used first. Generators are
/// deterministic, so a hit is the very instance a rebuild would produce,
/// and every line of a spec shares one ConstrainedProblem and evaluator
/// (so the service's per-handle fingerprint memo hits too). File sources
/// are never memoized: a file can change between jobs.
class GenMemo {
 public:
  GenMemo() : entries_(kCapacity) {}

  SolveRequest get(const std::string& spec) SAIM_EXCLUDES(mutex_) {
    {
      util::MutexLock lock(mutex_);
      if (const SolveRequest* hit = entries_.find(spec)) return *hit;
    }
    // Built unlocked, so one slow spec does not stall the others. Racing
    // builders of one spec keep whichever entry landed first, so every
    // caller still shares one problem.
    SolveRequest built = build_gen_request(spec);
    util::MutexLock lock(mutex_);
    if (const SolveRequest* hit = entries_.find(spec)) return *hit;
    return entries_.insert(spec, std::move(built));
  }

 private:
  /// A handful of hot specs is the serving shape (four in each bench
  /// workload). A QKP-200 entry holds 0.7 MB, so a full memo stays near
  /// 11 MB at paper scale.
  static constexpr std::size_t kCapacity = 16;

  util::Mutex mutex_;
  util::SmallLru<std::string, SolveRequest> entries_ SAIM_GUARDED_BY(mutex_);
};

SolveRequest request_from_gen(const std::string& spec,
                              std::string* instance_name) {
  static GenMemo memo;
  SolveRequest request = memo.get(spec);
  *instance_name = request.tag;
  return request;
}

/// Loads the instance named by path/format and lowers it to a request.
SolveRequest request_from_file(const std::string& type,
                               const std::string& path,
                               const std::string& format,
                               std::string* instance_name) {
  SolveRequest request;
  if (type == "qkp") {
    request = request_for(std::make_shared<problems::QkpInstance>(
        format == "native" ? problems::load_qkp(path)
                           : problems::load_qkp_billionnet(path)));
  } else if (type == "mkp") {
    request = request_for(std::make_shared<problems::MkpInstance>(
        format == "native" ? problems::load_mkp(path)
                           : problems::load_mkp_orlib(path)));
  } else {
    throw std::runtime_error("job needs \"type\": \"qkp\" or \"mkp\"");
  }
  *instance_name = request.tag;
  return request;
}

Priority parse_priority(const std::string& p) {
  if (p == "low") return Priority::kLow;
  if (p == "high") return Priority::kHigh;
  if (p.empty() || p == "normal") return Priority::kNormal;
  throw std::runtime_error("bad priority '" + p +
                           "' (want low, normal or high)");
}

/// The file source's (type, format) after the defaulting parse_job
/// applies: type inferred from format, format defaulted by type.
std::pair<std::string, std::string> file_type_format(
    const util::JsonValue& job) {
  auto str = [&](const char* key) {
    const auto* v = job.find(key);
    return v ? v->as_string() : std::string{};
  };
  std::string type = str("type");
  std::string format = str("format");
  if (type.empty()) {  // infer from format
    if (format == "billionnet") type = "qkp";
    if (format == "orlib") type = "mkp";
  }
  if (format.empty()) format = type == "mkp" ? "orlib" : "billionnet";
  return {type, format};
}

/// Borrowed view of a string field ("" when absent or not a string) —
/// the parse path reads several of these per job line, so no copies.
const std::string& field_string(const util::JsonValue& job, const char* key) {
  static const std::string kEmpty;
  const auto* v = job.find(key);
  return v ? v->as_string() : kEmpty;
}

double require_number(const util::JsonValue& job, const char* key,
                      double fallback) {
  const auto* v = job.find(key);
  if (v && !v->is_number()) {
    throw std::runtime_error(std::string("field \"") + key +
                             "\" must be a number");
  }
  return v ? v->as_double(fallback) : fallback;
}

// Counts must be nonnegative integers: a raw double->size_t cast of -1
// or 1e300 is UB and would silently produce a near-endless job.
std::uint64_t require_count(const util::JsonValue& job, const char* key,
                            std::uint64_t fallback) {
  const auto* v = job.find(key);
  if (!v) return fallback;
  if (!v->is_number()) {
    throw std::runtime_error(std::string("field \"") + key +
                             "\" must be a number");
  }
  const double d = v->as_double();
  if (!(d >= 0.0) || d > 9007199254740992.0 /* 2^53 */ ||
      d != std::floor(d)) {
    throw std::runtime_error(std::string("field \"") + key +
                             "\" must be a nonnegative integer");
  }
  return static_cast<std::uint64_t>(d);
}

}  // namespace

void validate_job(const util::JsonValue& job) {
  if (!job.is_object()) throw std::runtime_error("job line is not an object");

  for (const auto& [key, value] : job.object()) {
    if (!known_keys().contains(key)) {
      throw std::runtime_error("unknown job field \"" + key + "\"");
    }
  }
  require_count(job, "sweeps", 0);
  require_count(job, "iterations", 0);
  require_count(job, "seed", 0);
  require_count(job, "replicas", 0);
  require_count(job, "deadline_ms", 0);
  require_number(job, "beta_max", 0.0);
  require_number(job, "eta", 0.0);
  require_number(job, "penalty_alpha", 0.0);
  parse_priority(field_string(job, "priority"));

  if (!job.find("gen")) {
    if (!job.find("path")) {
      throw std::runtime_error("job needs either \"gen\" or \"path\"");
    }
    const auto [type, format] = file_type_format(job);
    if (type != "qkp" && type != "mkp") {
      throw std::runtime_error("job needs \"type\": \"qkp\" or \"mkp\"");
    }
  }
}

ParsedJob parse_job(const util::JsonValue& job) {
  validate_job(job);

  ParsedJob parsed;
  SolveRequest& request = parsed.request;
  if (const auto* gen = job.find("gen")) {
    request = request_from_gen(gen->as_string(), &parsed.instance);
  } else {
    const auto [type, format] = file_type_format(job);
    request = request_from_file(type, job.find("path")->as_string(), format,
                                &parsed.instance);
  }

  const std::string& backend = field_string(job, "backend");
  request.backend.name = backend.empty() ? "pbit" : backend;
  request.backend.sweeps =
      static_cast<std::size_t>(require_count(job, "sweeps", 1000));
  request.backend.beta_max = require_number(job, "beta_max", 10.0);

  request.options.iterations =
      static_cast<std::size_t>(require_count(job, "iterations", 2000));
  request.options.eta = require_number(job, "eta", 20.0);
  request.options.penalty_alpha = require_number(job, "penalty_alpha", 2.0);
  request.options.seed = require_count(job, "seed", 1);
  request.options.replicas =
      static_cast<std::size_t>(require_count(job, "replicas", 1));

  request.priority = parse_priority(field_string(job, "priority"));
  request.timeout = std::chrono::milliseconds(
      static_cast<long>(require_count(job, "deadline_ms", 0)));
  if (const auto* cache = job.find("cache")) {
    request.use_cache = cache->as_bool(true);
  }
  if (const auto* trace = job.find("trace")) {
    request.trace = trace->as_bool(false);
  }
  request.tag = field_string(job, "id");
  return parsed;
}

ParsedJob parse_job_line(const std::string& line) {
  return parse_job(util::parse_json(line));
}

std::optional<std::string> control_cmd(const util::JsonValue& line) {
  if (!line.is_object()) return std::nullopt;
  const auto* cmd = line.find("cmd");
  if (!cmd) return std::nullopt;
  const std::string& name = cmd->as_string();
  if (std::find(std::begin(kCommands), std::end(kCommands), name) ==
      std::end(kCommands)) {
    throw std::runtime_error(unknown_cmd_error(name));
  }
  for (const auto& [key, value] : line.object()) {
    if (key == "cmd" || key == "id") continue;
    if (key == "shards" && name == "reshard") continue;
    if (control_keys().contains(key)) {
      throw std::runtime_error("control field \"" + key +
                               "\" does not belong on cmd \"" + name + "\"");
    }
    throw std::runtime_error("unknown control field \"" + key + "\"");
  }
  return name;
}

std::string instance_source_key(const util::JsonValue& job) {
  if (!job.is_object()) return {};
  if (const auto* gen = job.find("gen")) {
    return "gen:" + gen->as_string();
  }
  if (const auto* path = job.find("path")) {
    const auto [type, format] = file_type_format(job);
    return "file:" + type + "|" + format + "|" + path->as_string();
  }
  return {};
}

}  // namespace saim::service
