// perfbench_algo1 — Algorithm 1 at paper scale, driven step by step from
// outside the library.
//
// Solves the eight QKP-200 paper instances 200-{25,50,75,100}-{1,2} with
// the p-bit backend and Table I settings (eta 20, P = 2dN, beta_max 10,
// 1000 MCS per inner run, one replica), calling core::DualAscent::step
// itself so that every outer iteration is timed. It prints raw samples
// only, one JSON object per line; perfbench/run.py turns them into
// metrics (and is where the censoring and gap rules live, under test).
//
// Usage:
//   perfbench_algo1 --seed S [--trace 0|1]
//
// Lines written:
//   {"kind":"setup", ...}     per set-up repetition: stage times and the
//                             calibration chunk that followed, in ms
//   {"kind":"instance", ...}  per instance: step times, thread CPU of the
//                             steps, calibration chunk times, first
//                             feasible step, best cost, greedy
//                             reference, and with --trace 1 the per-layer
//                             sums
//   {"kind":"check", ...}     the stepped result next to
//                             SaimSolver::solve on the same seed
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "anneal/backend.hpp"
#include "calibrator.hpp"
#include "core/penalty_method.hpp"
#include "core/saim_solver.hpp"
#include "heuristics/greedy.hpp"
#include "lagrange/lagrangian_model.hpp"
#include "pbit/schedule.hpp"
#include "problems/qkp.hpp"
#include "util/rng.hpp"

namespace {

using namespace saim;
using perfbench::Calibrator;
using perfbench::Clock;
using perfbench::ms_since;
using perfbench::thread_cpu_s;

constexpr std::size_t kN = 200;
constexpr int kDensities[] = {25, 50, 75, 100};
constexpr int kIndices[] = {1, 2};
constexpr std::size_t kMcsPerRun = 1000;
constexpr double kBetaMax = 10.0;
constexpr double kEta = 20.0;
constexpr double kPenaltyAlpha = 2.0;
// K: above 386, the latest first feasible step seen (200-25-1).
constexpr std::size_t kIterations = 400;
// Set-ups timed per run; run.py reports their median.
constexpr std::size_t kSetupReps = 21;
constexpr std::size_t kCalibrateEvery = 10;  ///< steps per timing window

/// Appends `values` as a JSON array of milliseconds.
void append_array(std::string& out, const std::vector<double>& values) {
  out += '[';
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, i ? ",%.6f" : "%.6f", values[i]);
    out += buf;
  }
  out += ']';
}

void append_field(std::string& out, const char* key, double value) {
  char buf[96];
  std::snprintf(buf, sizeof buf, ",\"%s\":%.17g", key, value);
  out += buf;
}

/// Everything one instance needs before its first step. Held by pointer:
/// the model keeps the address of mapping.problem.
struct Prepared {
  problems::QkpInstance qkp;
  problems::QkpMapping mapping;
  std::unique_ptr<lagrange::LagrangianModel> model;
  std::unique_ptr<anneal::PBitBackend> backend;
};

struct SetupTimes {
  double map_ms = 0.0;
  double build_ms = 0.0;
  double bind_ms = 0.0;
};

std::unique_ptr<Prepared> prepare(int density, int index, SetupTimes& t) {
  auto p = std::make_unique<Prepared>();
  p->qkp = problems::make_paper_qkp(kN, density, index);
  auto t0 = Clock::now();
  p->mapping = problems::qkp_to_problem(p->qkp);
  t.map_ms += ms_since(t0);
  t0 = Clock::now();
  p->model = std::make_unique<lagrange::LagrangianModel>(
      p->mapping.problem,
      lagrange::heuristic_penalty(p->mapping.problem, kPenaltyAlpha));
  t.build_ms += ms_since(t0);
  t0 = Clock::now();
  p->backend = std::make_unique<anneal::PBitBackend>(
      pbit::Schedule::linear(kBetaMax), kMcsPerRun);
  p->backend->bind(p->model->ising());
  t.bind_ms += ms_since(t0);
  return p;
}

/// Timing decorator: forwards every call to `inner` and records how long
/// the inner runs and landscape refreshes took. It draws nothing from the
/// RNG itself, so the trajectory is the undecorated one (the check line
/// proves it). Stop tokens and initial states are not forwarded: this
/// benchmark uses neither.
class TimedBackend final : public anneal::IsingSolverBackend {
 public:
  explicit TimedBackend(anneal::IsingSolverBackend& inner) : inner_(inner) {}

  void bind(const ising::IsingModel& model) override { inner_.bind(model); }
  void fields_updated() override {
    const auto t0 = Clock::now();
    inner_.fields_updated();
    fields_updated_ms += ms_since(t0);
  }
  anneal::RunResult run(util::Xoshiro256pp& rng) override {
    const auto t0 = Clock::now();
    anneal::RunResult result = inner_.run(rng);
    run_ms.push_back(ms_since(t0));
    mcs += result.sweeps;
    return result;
  }
  [[nodiscard]] std::size_t sweeps_per_run() const override {
    return inner_.sweeps_per_run();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  std::vector<double> run_ms;
  double fields_updated_ms = 0.0;
  std::size_t mcs = 0;

 private:
  anneal::IsingSolverBackend& inner_;
};

core::SaimOptions solver_options(std::size_t iterations, std::uint64_t seed) {
  core::SaimOptions opts;
  opts.iterations = iterations;
  opts.eta = kEta;
  opts.penalty_alpha = kPenaltyAlpha;
  opts.seed = seed;
  return opts;
}

struct Args {
  std::uint64_t seed = 1;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--trace") {
      a.trace = value != "0";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args = parse_args(argc, argv);

  // Set-up, repeated: the last repetition's objects are the ones solved.
  // A calibration chunk follows each repetition.
  Calibrator calibrator;
  std::vector<std::unique_ptr<Prepared>> prepared;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    prepared.clear();
    SetupTimes t;
    const auto t0 = Clock::now();
    for (const int d : kDensities) {
      for (const int i : kIndices) prepared.push_back(prepare(d, i, t));
    }
    const double total_ms = ms_since(t0);
    const double cal_ms = calibrator.chunk();
    std::printf("{\"kind\":\"setup\",\"total_ms\":%.6f,\"map_ms\":%.6f,"
                "\"build_ms\":%.6f,\"bind_ms\":%.6f,\"cal_ms\":%.6f}\n",
                total_ms, t.map_ms, t.build_ms, t.bind_ms, cal_ms);
  }

  for (std::size_t idx = 0; idx < prepared.size(); ++idx) {
    Prepared& p = *prepared[idx];
    const std::uint64_t seed = util::derive_seed(args.seed, idx);

    TimedBackend timed(*p.backend);
    anneal::IsingSolverBackend& backend =
        args.trace ? static_cast<anneal::IsingSolverBackend&>(timed)
                   : *p.backend;
    double judge_ms = 0.0;
    core::SampleEvaluator judge = core::make_qkp_evaluator(p.qkp);
    if (args.trace) {
      judge = [inner = std::move(judge),
               &judge_ms](std::span<const std::uint8_t> x) {
        const auto t0 = Clock::now();
        const core::SampleVerdict v = inner(x);
        judge_ms += ms_since(t0);
        return v;
      };
    }

    core::DualAscent ascent(p.mapping.problem,
                            solver_options(kIterations, seed),
                            std::move(judge), util::StopToken{});
    std::vector<double> step_ms;
    step_ms.reserve(kIterations);
    // Chunk 0 runs before the first window, chunk w+1 after window w.
    std::vector<double> cal_ms{calibrator.chunk()};
    long first_feasible = -1;
    double ttff_ms = 0.0;
    std::size_t sweeps_to_feasible = 0;
    double elapsed_ms = 0.0;
    double cpu_s = 0.0;
    double window_cpu0 = thread_cpu_s();
    bool done = false;
    while (!done) {
      const auto t0 = Clock::now();
      done = ascent.step(*p.model, backend);
      const double dt = ms_since(t0);
      step_ms.push_back(dt);
      elapsed_ms += dt;
      if (done || step_ms.size() % kCalibrateEvery == 0) {
        cpu_s += thread_cpu_s() - window_cpu0;
        cal_ms.push_back(calibrator.chunk());
        window_cpu0 = thread_cpu_s();
      }
      const core::SolveResult& r = ascent.result();
      if (first_feasible < 0 && r.feasible_count > 0) {
        first_feasible = static_cast<long>(r.total_runs) - 1;
        ttff_ms = elapsed_ms;
        sweeps_to_feasible = r.total_sweeps;
      }
    }
    const core::SolveResult& r = ascent.result();
    const double greedy_cost = static_cast<double>(
        p.qkp.cost(heuristics::greedy_qkp(p.qkp)));

    std::string line = "{\"kind\":\"instance\",\"name\":\"" + p.qkp.name() +
                       "\",\"seed\":" + std::to_string(seed);
    line += ",\"iterations\":" + std::to_string(kIterations);
    line += ",\"mcs_per_run\":" + std::to_string(kMcsPerRun);
    line += ",\"first_feasible_iter\":" + std::to_string(first_feasible);
    append_field(line, "ttff_ms", ttff_ms);
    line += ",\"sweeps_to_feasible\":" + std::to_string(sweeps_to_feasible);
    line += ",\"found_feasible\":";
    line += r.found_feasible ? "true" : "false";
    append_field(line, "best_cost", r.found_feasible ? r.best_cost : 0.0);
    append_field(line, "greedy_cost", greedy_cost);
    line += ",\"feasible_count\":" + std::to_string(r.feasible_count);
    line += ",\"total_runs\":" + std::to_string(r.total_runs);
    line += ",\"total_sweeps\":" + std::to_string(r.total_sweeps);
    append_field(line, "cpu_s", cpu_s);
    line += ",\"calibrate_every\":" + std::to_string(kCalibrateEvery);
    line += ",\"step_ms\":";
    append_array(line, step_ms);
    line += ",\"cal_ms\":";
    append_array(line, cal_ms);
    if (args.trace) {
      append_field(line, "fields_updated_ms", timed.fields_updated_ms);
      append_field(line, "judge_ms", judge_ms);
      line += ",\"traced_mcs\":" + std::to_string(timed.mcs);
      line += ",\"run_ms\":";
      append_array(line, timed.run_ms);
    }
    line += "}\n";
    std::fputs(line.c_str(), stdout);
    std::fflush(stdout);

    if (idx == args.seed % prepared.size()) {
      // The reference path: a fresh mapping and backend through the
      // library's own loop, same seed.
      const auto mapping = problems::qkp_to_problem(p.qkp);
      anneal::PBitBackend fresh(pbit::Schedule::linear(kBetaMax), kMcsPerRun);
      core::SaimSolver solver(mapping.problem, fresh,
                              solver_options(kIterations, seed));
      const core::SolveResult ref =
          solver.solve(core::make_qkp_evaluator(p.qkp));
      std::string c = "{\"kind\":\"check\",\"name\":\"" + p.qkp.name() + "\"";
      c += ",\"stepped\":{\"found_feasible\":";
      c += r.found_feasible ? "true" : "false";
      append_field(c, "best_cost", r.found_feasible ? r.best_cost : 0.0);
      c += ",\"feasible_count\":" + std::to_string(r.feasible_count);
      c += ",\"total_sweeps\":" + std::to_string(r.total_sweeps) + "}";
      c += ",\"solve\":{\"found_feasible\":";
      c += ref.found_feasible ? "true" : "false";
      append_field(c, "best_cost", ref.found_feasible ? ref.best_cost : 0.0);
      c += ",\"feasible_count\":" + std::to_string(ref.feasible_count);
      c += ",\"total_sweeps\":" + std::to_string(ref.total_sweeps) + "}}\n";
      std::fputs(c.c_str(), stdout);
      std::fflush(stdout);
    }
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "perfbench_algo1: %s\n", e.what());
  return 2;
}
