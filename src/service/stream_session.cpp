#include "service/stream_session.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <utility>

#include "core/report.hpp"
#include "service/job_parser.hpp"
#include "service/service_stats.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_checker.hpp"

namespace saim::service {

// ----------------------------------------------------------- warm payload

std::string warm_pool_to_json(
    const std::vector<ResultCache::WarmSnapshot>& pool) {
  std::string json = "{";
  bool first_problem = true;
  for (const auto& entry : pool) {
    char fp_hex[17];
    std::snprintf(fp_hex, sizeof fp_hex, "%016" PRIx64, entry.problem_fp);
    if (!first_problem) json += ",";
    first_problem = false;
    json += "\"";
    json += fp_hex;
    json += "\":[";
    bool first_sample = true;
    for (const auto& [cost, bits] : entry.samples) {
      std::string bit_string(bits.size(), '0');
      for (std::size_t i = 0; i < bits.size(); ++i) {
        if (bits[i]) bit_string[i] = '1';
      }
      util::JsonWriter sample;
      sample.field("cost", cost).field("bits", bit_string);
      if (!first_sample) json += ",";
      first_sample = false;
      json += sample.str();
    }
    json += "]";
  }
  json += "}";
  return json;
}

std::optional<std::uint64_t> parse_fp_hex(const std::string& hex) {
  if (hex.empty() || hex.size() > 16) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : hex) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return value;
}

std::size_t import_warm_json(SolveService& service,
                             const util::JsonValue& warm) {
  if (!warm.is_object()) {
    throw std::runtime_error("\"warm\" must be an object");
  }
  std::size_t imported = 0;
  for (const auto& [fp_hex, samples] : warm.object()) {
    const auto fp = parse_fp_hex(fp_hex);
    if (!fp) {
      throw std::runtime_error("bad warm fingerprint \"" + fp_hex + "\"");
    }
    if (!samples.is_array()) {
      throw std::runtime_error("warm entry \"" + fp_hex +
                               "\" must be an array");
    }
    for (const auto& sample : samples.array()) {
      const auto* cost = sample.find("cost");
      const auto* bits = sample.find("bits");
      if (!cost || !cost->is_number() || !bits || !bits->is_string()) {
        throw std::runtime_error("warm sample needs \"cost\" and \"bits\"");
      }
      const std::string& bit_string = bits->as_string();
      ising::Bits config(bit_string.size(), 0);
      for (std::size_t i = 0; i < bit_string.size(); ++i) {
        if (bit_string[i] == '1') {
          config[i] = 1;
        } else if (bit_string[i] != '0') {
          throw std::runtime_error("warm \"bits\" must be 0/1 characters");
        }
      }
      service.import_warm_sample(*fp, config, cost->as_double());
      ++imported;
    }
  }
  return imported;
}

// -------------------------------------------------------------- core

namespace {

struct PendingJob {
  std::string id;
  std::string instance;
  std::string backend;
  JobHandle handle;    ///< released once the line has emitted
  std::string error;   ///< submission-time failure; handle invalid
  bool trace = false;  ///< echo the "timing" object on the result line
  bool drain = false;  ///< {"cmd":"drain"} barrier, not a job
  bool bye = false;    ///< {"cmd":"shutdown"} farewell barrier
  bool export_warm = false;  ///< {"cmd":"export_warm"} snapshot barrier
  bool emitted = false;

  [[nodiscard]] bool barrier() const { return drain || bye || export_warm; }
};

}  // namespace

struct StreamSessionCore::Impl {
  SolveService& service;
  const SessionOptions options;
  /// Registered on the service's registry (get-or-create: sessions share
  /// one series) so emit delay rolls up with the solver-side stage
  /// histograms in stats snapshots and metrics scrapes.
  obs::Histogram& emit_hist;
  const std::function<void()> notify;

  /// The one piece of state other threads touch: indices of entries
  /// that finished, pushed by the jobs' on_ready hooks on solver
  /// workers (and by on_line for submission errors). Declared before
  /// `jobs`, so the handles — and with them every registered hook — are
  /// gone before the list is.
  util::Mutex ready_mutex;
  std::vector<std::size_t> ready SAIM_GUARDED_BY(ready_mutex);

  util::ThreadChecker thread_checker{"StreamSessionCore"};
  std::vector<PendingJob> jobs;
  /// Lowest entry not yet emitted; every entry below it has emitted.
  std::size_t low = 0;
  std::size_t emitted_count = 0;
  std::size_t inflight = 0;  ///< accepted jobs (valid handle) not emitted
  bool input_done = false;
  std::int64_t next_seq = 0;
  bool any_error = false;
  std::size_t line_no = 0;
  bool intake_stopped = false;

  Impl(SolveService& svc, const SessionOptions& opts,
       std::function<void()> notify_fn)
      : service(svc),
        options(opts),
        emit_hist(svc.metrics().histogram(
            "saim_emit_ms",
            "response ready to result line rendered, milliseconds")),
        notify(std::move(notify_fn)) {}

  /// Queues entry `index` as finished and, when the list was empty (the
  /// driver has taken everything before), tells the driver. Any thread.
  void push_ready(std::size_t index) SAIM_EXCLUDES(ready_mutex) {
    bool was_empty = false;
    {
      util::MutexLock lock(ready_mutex);
      was_empty = ready.empty();
      ready.push_back(index);
    }
    if (was_empty) notify();
  }

  std::vector<std::size_t> take_ready() SAIM_EXCLUDES(ready_mutex) {
    std::vector<std::size_t> taken;
    util::MutexLock lock(ready_mutex);
    taken.swap(ready);
    return taken;
  }

  /// Renders entry `index` (finished job, error or barrier) and retires
  /// it: the handle is released, so the result is not held for the rest
  /// of the session.
  void emit(std::size_t index, std::vector<std::string>& out);
  std::string render(PendingJob& job);
  std::string render_barrier(PendingJob& job);
};

// Renders the result/error line for a FINISHED job.
// In stream mode, lines for ACCEPTED jobs carry the emission sequence
// number; lines rejected at submission never consume one (the global
// completion order counts real jobs only). In batch mode results print
// after EOF in input order, without seq.
std::string StreamSessionCore::Impl::render(PendingJob& job) {
  if (!job.handle.valid()) {
    any_error = true;
    util::JsonWriter err;
    err.field("id", job.id).field("error", job.error);
    return err.take();
  }
  const std::int64_t seq = options.stream ? next_seq++ : -1;
  const auto response = job.handle.wait();  // finished: returns at once
  // Completion-to-emission delay, recorded for every rendered job
  // (prompt emission is a property of the SESSION, not of traced
  // jobs). Epoch finished_at = response built outside the service.
  double emit_ms = 0.0;
  if (response->finished_at != std::chrono::steady_clock::time_point{}) {
    emit_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - response->finished_at)
                  .count();
    emit_hist.observe(emit_ms);
  }
  if (response->status == core::Status::kError) {
    any_error = true;
    util::JsonWriter err;
    err.field("id", job.id).field("error", response->error);
    if (seq >= 0) err.field("seq", seq);
    return err.take();
  }
  core::JsonlContext context;
  context.id = job.id;
  context.instance = job.instance;
  context.backend = job.backend;
  context.wall_ms = response->wall_ms;
  context.cache_hit = response->cache_hit;
  context.fingerprint = response->fingerprint;
  context.batch_size = response->batch_size;
  context.warm_started = response->warm_started;
  if (job.trace) {
    context.trace = true;
    context.queue_ms = response->timing.queue_ms;
    context.setup_ms = response->timing.setup_ms;
    context.solve_ms = response->timing.solve_ms;
    context.emit_ms = emit_ms;
    context.total_ms = response->timing.total_ms;
    context.e2e_ms = response->timing.total_ms + emit_ms;
  }
  context.seq = seq;
  return core::result_to_jsonl(*response->result, context);
}

// A barrier's acknowledgement line (no seq: control lines never consume
// completion-order numbers). drain says "drained", shutdown says "bye",
// export_warm snapshots the pool — at barrier time, so every feasible
// job accepted before it has already deposited its samples.
std::string StreamSessionCore::Impl::render_barrier(PendingJob& job) {
  util::JsonWriter ack;
  ack.field("id", job.id);
  if (job.bye) {
    ack.field("bye", true);
  } else if (job.export_warm) {
    ack.raw_field("warm", warm_pool_to_json(service.export_warm_pool()));
  } else {
    ack.field("drained", true);
  }
  return ack.take();
}

void StreamSessionCore::Impl::emit(std::size_t index,
                                   std::vector<std::string>& out) {
  PendingJob& job = jobs[index];
  out.push_back(job.barrier() ? render_barrier(job) : render(job));
  if (job.handle.valid()) --inflight;
  job.handle = JobHandle{};
  job.emitted = true;
  ++emitted_count;
}

StreamSessionCore::StreamSessionCore(SolveService& service,
                                     const SessionOptions& options,
                                     std::function<void()> notify)
    : impl_(std::make_unique<Impl>(service, options, std::move(notify))) {}

StreamSessionCore::~StreamSessionCore() = default;

bool StreamSessionCore::on_line(const std::string& line,
                                std::vector<std::string>& replies) {
  Impl& im = *impl_;
  im.thread_checker.assert_current_thread();
  if (im.intake_stopped) return false;
  ++im.line_no;
  if (line.find_first_not_of(" \t\r") == std::string::npos) return true;
  PendingJob pending;
  pending.id = "job" + std::to_string(im.line_no);
  bool stop_reading = false;
  try {
    const util::JsonValue parsed = util::parse_json(line);
    // Use the line's own id everywhere — result lines, error lines,
    // control acknowledgements — falling back to the line number.
    if (const auto* id = parsed.find("id")) {
      if (!id->as_string().empty()) pending.id = id->as_string();
    }
    if (const auto cmd = control_cmd(parsed)) {
      if (*cmd == "ping") {
        // Liveness probe: answered immediately, even in batch mode and
        // even while every worker is busy (submission never blocks).
        // "inflight" counts THIS session's accepted-but-unemitted jobs
        // — rejected lines and barriers are not load.
        util::JsonWriter pong;
        pong.field("id", pending.id)
            .field("pong", true)
            .field("inflight", static_cast<std::uint64_t>(im.inflight));
        replies.push_back(pong.take());
        return true;
      }
      if (*cmd == "stats") {
        // Snapshot, not a barrier: answered immediately with the
        // service's CURRENT counters and latency quantiles, like ping.
        // (saim_shard intercepts this cmd at the front door and
        // aggregates the whole fleet instead.)
        util::JsonWriter reply;
        reply.field("id", pending.id)
            .raw_field("service", service_stats_json(im.service));
        replies.push_back(reply.take());
        return true;
      }
      if (*cmd == "import_warm") {
        const auto* warm = parsed.find("warm");
        if (!warm) throw std::runtime_error("import_warm needs \"warm\"");
        const std::size_t imported = import_warm_json(im.service, *warm);
        util::JsonWriter reply;
        reply.field("id", pending.id)
            .field("imported", static_cast<std::uint64_t>(imported));
        replies.push_back(reply.take());
        return true;
      }
      if (*cmd == "reshard") {
        throw std::runtime_error(
            "control cmd \"reshard\" is only handled by the saim_shard "
            "front door");
      }
      if (*cmd == "shutdown") {
        // Farewell barrier: intake stops NOW; everything accepted
        // before it drains, then {"bye":true} ends the session.
        pending.bye = true;
        stop_reading = true;
      } else if (*cmd == "export_warm") {
        // Snapshot barrier: replied once every job accepted before it
        // has emitted — their feasible samples are then in the pool,
        // so a handoff export never under-reports in-flight work.
        pending.export_warm = true;
      } else {
        pending.drain = true;  // barrier; acknowledged once drained
      }
    } else {
      ParsedJob job = parse_job(parsed, im.options.warm_default);
      job.request.tag = pending.id;
      pending.instance = job.instance;
      pending.backend = job.request.backend.name;
      pending.trace = job.request.trace;
      pending.handle = im.service.submit(std::move(job.request));
    }
  } catch (const std::exception& e) {
    pending.error = e.what();
  }
  const std::size_t index = im.jobs.size();
  const bool barrier = pending.barrier();
  const bool accepted = pending.handle.valid();
  if (accepted) {
    ++im.inflight;
    pending.handle.on_ready(
        [impl = impl_.get(), index] { impl->push_ready(index); });
  }
  im.jobs.push_back(std::move(pending));
  if (barrier) {
    // Emittable at once when nothing before it is outstanding.
    if (im.options.stream) im.notify();
  } else if (!accepted) {
    im.push_ready(index);  // the error line is ready now
  }
  if (stop_reading) {
    im.intake_stopped = true;
    return false;
  }
  return true;
}

void StreamSessionCore::finish_input() {
  impl_->thread_checker.assert_current_thread();
  impl_->input_done = true;
  impl_->notify();  // batch mode may emit now; the session may be drained
}

// Stream mode renders only what the hooks reported finished, in the order
// they finished, then advances the lowest-unemitted watermark past
// emitted entries: a barrier there has nothing unemitted before it and
// emits. Jobs after a barrier may still overtake it — "drained"
// certifies the PAST, not the future. Batch mode walks the same watermark
// in input order, rendering the finished prefix (nothing before EOF).
bool StreamSessionCore::poll_emittable(std::vector<std::string>& out) {
  Impl& im = *impl_;
  im.thread_checker.assert_current_thread();
  if (!im.options.stream && !im.input_done) return false;
  const std::vector<std::size_t> ready = im.take_ready();
  if (im.options.stream) {
    for (const std::size_t index : ready) im.emit(index, out);
  }
  for (; im.low < im.jobs.size(); ++im.low) {
    PendingJob& job = im.jobs[im.low];
    if (job.emitted) continue;
    if (!job.barrier() &&
        (im.options.stream ||
         (job.handle.valid() && !job.handle.try_get()))) {
      break;  // unfinished (stream mode: its hook reports it)
    }
    im.emit(im.low, out);
  }
  return drained();
}

bool StreamSessionCore::drained() const {
  impl_->thread_checker.assert_current_thread();
  return impl_->input_done && impl_->emitted_count == impl_->jobs.size();
}

std::size_t StreamSessionCore::unemitted_count() const {
  impl_->thread_checker.assert_current_thread();
  return impl_->jobs.size() - impl_->emitted_count;
}

bool StreamSessionCore::any_error() const {
  impl_->thread_checker.assert_current_thread();
  return impl_->any_error;
}

}  // namespace saim::service
