// Ablations over SAIM's design choices (DESIGN.md section 4). Not a paper
// table — these probe the knobs the paper fixes in Table I:
//   A1: subgradient step size eta        (paper: 20 for QKP)
//   A2: penalty scale alpha in P=alpha dN (paper: 2 for QKP)
//   A3: beta schedule shape linear vs geometric (paper: linear)
// The lambda update is always the paper's: a fixed step eta on the last
// sample of each run.
#include <cinttypes>

#include "bench_common.hpp"

namespace {

using namespace saim;

struct AblationRun {
  std::string label;
  core::SolveResult result;
};

core::SolveResult run_variant(const problems::QkpInstance& inst,
                              const core::ExperimentParams& params,
                              std::uint64_t seed, double eta, double alpha,
                              bool geometric) {
  const auto mapping = problems::qkp_to_problem(inst);
  const auto schedule =
      geometric ? pbit::Schedule::geometric(0.05, params.beta_max)
                : pbit::Schedule::linear(params.beta_max);
  anneal::PBitBackend backend(schedule, params.mcs_per_run);
  core::SaimOptions opts;
  opts.iterations = params.runs;
  opts.eta = eta;
  opts.penalty_alpha = alpha;
  opts.seed = seed;
  opts.collect_feasible_costs = true;
  core::SaimSolver solver(mapping.problem, backend, opts);
  return solver.solve(core::make_qkp_evaluator(inst));
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("ablation_saim",
                       "Ablation benches over SAIM design choices");
  args.add_flag("n", "QKP size", "100")
      .add_flag("density", "density percent", "50")
      .add_flag("index", "instance index", "1")
      .add_flag("runs", "SAIM iterations per variant", "300")
      .add_flag("seed", "seed", "1");
  args.add_bool("full", "paper-scale runs (2000)");
  if (!args.parse(argc, argv)) return 0;

  auto params = core::qkp_paper_params();
  params.runs = args.get_bool("full")
                    ? 2000
                    : static_cast<std::size_t>(args.get_int("runs"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

  const auto inst = problems::make_paper_qkp(
      static_cast<std::size_t>(args.get_int("n")),
      static_cast<int>(args.get_int("density")),
      static_cast<int>(args.get_int("index")));

  bench::print_banner("SAIM ablations on QKP " + inst.name(),
                      args.get_bool("full"),
                      std::to_string(params.runs) + " runs per variant");

  std::vector<AblationRun> runs;
  // A1: eta sweep.
  for (const double eta : {0.0, 1.0, 5.0, 20.0, 50.0, 200.0}) {
    runs.push_back({"A1 eta=" + std::to_string(eta),
                    run_variant(inst, params, seed, eta, 2.0, false)});
  }
  // A2: alpha sweep (P = alpha d N).
  for (const double alpha : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    runs.push_back({"A2 alpha=" + std::to_string(alpha),
                    run_variant(inst, params, seed, 20.0, alpha, false)});
  }
  // A3: schedule shape.
  runs.push_back({"A3 linear schedule",
                  run_variant(inst, params, seed, 20.0, 2.0, false)});
  runs.push_back({"A3 geometric schedule",
                  run_variant(inst, params, seed, 20.0, 2.0, true)});

  std::vector<double> candidates = {bench::greedy_reference_qkp(inst)};
  for (const auto& r : runs) {
    if (r.result.found_feasible) candidates.push_back(r.result.best_cost);
  }
  const double reference = bench::best_known(candidates);

  std::printf("%-26s %9s %9s %7s\n", "variant", "best-acc", "avg-acc",
              "feas%");
  bench::print_rule(60);
  for (const auto& r : runs) {
    const auto s = bench::score_against(r.result, reference);
    std::printf("%-26s %8.2f%% %8.2f%% %6.1f%%\n", r.label.c_str(),
                s.best_accuracy, s.avg_accuracy, 100.0 * s.feasibility);
  }
  bench::print_rule(60);
  std::printf("expected shape: eta=0 (pure penalty) trails adaptive "
              "variants; alpha far from 2 hurts; the geometric schedule can "
              "reach feasibility where the linear one does not.\n");
  return 0;
}
