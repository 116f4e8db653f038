// Feasibility-boost ablation for MKP — the paper's conclusion proposes two
// remedies for the low MKP feasibility rate (~5%):
//   "To increase feasibility, one could increase the initial penalties set
//    by P. Another approach [16] would be to reduce the knapsack capacities
//    B artificially as B' < B so that the measured samples are more likely
//    to satisfy the constraints."
// This bench measures both: a P-alpha sweep and a capacity-shrink sweep,
// reporting feasibility and best accuracy so the cost of each remedy is
// visible (tighter B' or larger P raise feasibility but can exclude the
// true optimum / degrade quality).
#include <cinttypes>

#include "bench_common.hpp"

namespace {

using namespace saim;

core::SolveResult run_mkp_variant(const problems::MkpInstance& inst,
                                  const core::ExperimentParams& params,
                                  double shrink, double alpha,
                                  std::uint64_t seed) {
  problems::MkpLoweringOptions lowering;
  lowering.capacity_shrink = shrink;
  const auto mapping = problems::mkp_to_problem(inst, lowering);
  anneal::PBitBackend backend(pbit::Schedule::linear(params.beta_max),
                              params.mcs_per_run);
  core::SaimOptions opts;
  opts.iterations = params.runs;
  opts.eta = params.eta;
  opts.penalty_alpha = alpha;
  opts.seed = seed;
  opts.collect_feasible_costs = true;
  core::SaimSolver solver(mapping.problem, backend, opts);
  // Feasibility is always judged against the TRUE capacities B.
  return solver.solve(core::make_mkp_evaluator(inst));
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("ablation_mkp_feasibility",
                       "Paper-conclusion ablation: raising MKP feasibility "
                       "via P and B' < B");
  args.add_flag("n", "items", "100")
      .add_flag("m", "knapsacks", "5")
      .add_flag("index", "instance index", "1")
      .add_flag("runs", "SAIM iterations per variant", "1500")
      .add_flag("seed", "seed", "1");
  args.add_bool("full", "paper-scale runs (5000)");
  if (!args.parse(argc, argv)) return 0;

  auto params = core::mkp_paper_params();
  params.runs = args.get_bool("full")
                    ? 5000
                    : static_cast<std::size_t>(args.get_int("runs"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const auto inst = problems::make_paper_mkp(
      static_cast<std::size_t>(args.get_int("n")),
      static_cast<std::size_t>(args.get_int("m")),
      static_cast<int>(args.get_int("index")));

  bench::print_banner("MKP feasibility ablation on " + inst.name(),
                      args.get_bool("full"),
                      std::to_string(params.runs) + " runs per variant");

  struct Variant {
    std::string label;
    double shrink;
    double alpha;
  };
  const std::vector<Variant> variants = {
      {"baseline (P=5dN, B'=B)", 1.00, 5.0},
      {"B' = 0.98 B", 0.98, 5.0},
      {"B' = 0.95 B", 0.95, 5.0},
      {"B' = 0.90 B", 0.90, 5.0},
      {"P = 10dN", 1.00, 10.0},
      {"P = 20dN", 1.00, 20.0},
      {"B'=0.95B + P=10dN", 0.95, 10.0},
  };

  struct Row {
    std::string label;
    core::SolveResult result;
  };
  std::vector<Row> rows;
  for (const auto& v : variants) {
    rows.push_back(
        {v.label, run_mkp_variant(inst, params, v.shrink, v.alpha, seed)});
  }

  double reference = 0.0;
  for (const auto& row : rows) {
    if (row.result.found_feasible) {
      reference = std::min(reference, row.result.best_cost);
    }
  }

  std::printf("%-24s %8s %9s %9s\n", "variant", "feas%", "best-acc",
              "avg-acc");
  bench::print_rule(56);
  for (const auto& row : rows) {
    const auto s = bench::score_against(row.result, reference);
    std::printf("%-24s %7.1f%% %8.2f%% %8.2f%%\n", row.label.c_str(),
                100.0 * s.feasibility, s.best_accuracy, s.avg_accuracy);
  }
  bench::print_rule(56);
  std::printf("expected shape: shrinking B' lifts feasibility; raising P "
              "alone may not (0%% at P = 20dN on 100-5-1..3 over 1000 "
              "runs); too-aggressive shrink caps best accuracy below 100%% "
              "because the optimum itself is cut away.\n");
  return 0;
}
