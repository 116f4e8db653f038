// The paper's introductory claim in runnable form: Ising machines natively
// solve unconstrained problems like max-cut (section I: minimizing the
// Ising Hamiltonian with W_ij = -J_ij maximizes the cut). No penalties, no
// multipliers — just the p-bit machine annealing the max-cut Ising image.
//
// Compares the p-bit machine against the greedy 1/2-approximation, 1-opt
// local search, and tabu search on random and structured graphs, and
// reports time-to-solution statistics over repeated runs.
#include <cstdio>

#include "anneal/tabu.hpp"
#include "core/tts.hpp"
#include "ising/graph.hpp"
#include "pbit/pbit_machine.hpp"
#include "problems/maxcut.hpp"
#include "util/timer.hpp"

int main() {
  using namespace saim;

  struct Case {
    const char* label;
    ising::Graph graph;
  };
  std::vector<Case> cases;
  cases.push_back({"G(60, 0.3) uniform", ising::random_gnp_graph(60, 0.3, 7)});
  cases.push_back(
      {"G(60, 0.5) weighted",
       ising::random_gnp_graph(60, 0.5, 11, 0.5, 3.0)});
  cases.push_back({"8x8 torus grid", ising::torus_grid_graph(8, 8)});

  for (auto& c : cases) {
    const auto& g = c.graph;
    std::printf("== %s: %zu vertices, %zu edges, total weight %.1f ==\n",
                c.label, g.num_vertices(), g.num_edges(), g.total_weight());

    // Greedy + local search baselines.
    auto side = problems::maxcut_greedy(g);
    const double greedy_cut = g.cut_value(side);
    const double ls_cut = problems::maxcut_local_search(g, side);

    // p-bit machine: repeated annealing runs.
    const auto model = problems::maxcut_to_ising(g);
    pbit::PBitMachine machine(model);
    util::Xoshiro256pp rng(3);
    pbit::AnnealOptions opts;
    opts.sweeps = 500;
    const std::size_t runs = 50;
    double best_pbit = 0.0;
    std::vector<double> run_cuts;
    util::WallTimer timer;
    for (std::size_t r = 0; r < runs; ++r) {
      const auto result =
          machine.anneal(pbit::Schedule::linear(4.0), opts, rng);
      const double cut = -result.last_energy;
      run_cuts.push_back(-cut);  // negative for the TTS cost convention
      best_pbit = std::max(best_pbit, cut);
    }
    const double per_run_seconds = timer.seconds() / runs;

    // Tabu baseline: the cut of the state the search ends on, which is
    // not its incumbent (tabu keeps moving uphill after the best).
    anneal::TabuOptions topts;
    topts.steps = 500 * g.num_vertices();  // same flip budget as the anneal
    anneal::TabuSearch tabu(model, topts);
    const double tabu_cut = -tabu.run(rng).last_energy;

    const double best_any =
        std::max({best_pbit, ls_cut, tabu_cut, greedy_cut});
    std::printf("%-28s %10s %10s\n", "method", "cut", "vs-best");
    auto row = [&](const char* name, double cut) {
      std::printf("%-28s %10.1f %9.2f%%\n", name, cut,
                  100.0 * cut / best_any);
    };
    row("greedy 1/2-approx", greedy_cut);
    row("greedy + 1-opt local", ls_cut);
    row("tabu search (end state)", tabu_cut);
    row("p-bit IM (best of 50)", best_pbit);

    const auto tts = core::time_to_solution_from_costs(
        run_cuts, -best_any, per_run_seconds);
    if (tts.defined) {
      std::printf("p-bit TTS(99%%) to best-known: %.3fs "
                  "(p=%.2f per %zu-sweep run)\n\n",
                  tts.tts, tts.success_probability, opts.sweeps);
    } else {
      std::printf("p-bit never hit best-known in %zu runs "
                  "(best-known came from another method)\n\n",
                  runs);
    }
  }
  return 0;
}
