// Standalone sweep-throughput report: times the recompute and incremental
// sweep engines, a whole Metropolis anneal and the production p-bit
// machine (at fixed beta, over a whole 1000-MCS ramp and over the 30-MCS
// ramp of a serving job, run start included) on the Lagrangian
// Ising model of the paper's QKP-200 instance 200-25-1, and writes
// BENCH_sweep.json.
// The 25% is the density of the QKP profit matrix; the Lagrangian's
// penalty P*|g|^2 couples every pair of spins, so every row of the Ising
// model has n-1 neighbours. Deliberately free of the google-benchmark
// dependency so CI can always build it and gate on the numbers; the
// exploratory micro benchmarks live in bench/micro_ops.cpp.
//
// Usage: bench_sweep_rates [output.json]
#include <cstdio>

#include "pbit/pbit_machine.hpp"
#include "sweep_common.hpp"

namespace {

using namespace saim;
using namespace saim::benchfix;

/// PBitMachine's sequential sweeps per second at fixed beta: the blocked
/// p-bit decision and the flip apply the paper's default job runs. Times
/// the `timed` sweeps after a `burn_in` at the same beta.
double measure_pbit_rate(const ising::IsingModel& model, double beta,
                         std::size_t burn_in, std::size_t timed) {
  const pbit::PBitMachine machine(model);
  return best_rate(kBenchRepeats, [&] {
    util::Xoshiro256pp rng(7);
    util::WallTimer timer;
    std::size_t seen = 0;
    machine.sample(beta, burn_in, timed, rng, [&](const ising::Spins& m) {
      if (seen++ == 0) timer.reset();
      keep(m.data());
    });
    return static_cast<double>(timed - 1) / timer.seconds();
  });
}

/// PBitMachine over whole inner runs of Algorithm 1: `runs` runs back to
/// back, each `sweeps` MCS on the paper's linear ramp from beta 0 to
/// `beta_end`, from a fresh random state (run start included), as every
/// outer step of a solve runs it.
double measure_pbit_anneal_rate(const ising::IsingModel& model,
                                double beta_end, std::size_t sweeps,
                                std::size_t runs) {
  const pbit::PBitMachine machine(model);
  const pbit::Schedule schedule = pbit::Schedule::linear(beta_end);
  pbit::AnnealOptions opts;
  opts.sweeps = sweeps;
  return best_rate(kBenchRepeats, [&] {
    util::Xoshiro256pp rng(99);
    util::WallTimer timer;
    for (std::size_t r = 0; r < runs; ++r) {
      keep(machine.anneal(schedule, opts, rng).last_energy);
    }
    return static_cast<double>(runs * sweeps) / timer.seconds();
  });
}

int write_bench_sweep_json(const char* path) {
  const auto inst = bench_instance(200, 25);
  const auto mapping = problems::qkp_to_problem(inst);
  lagrange::LagrangianModel model(mapping.problem, 2.0);
  const ising::IsingModel& ising = model.ising();
  const ising::Adjacency adj(ising);

  const double beta_early = 0.1;  // start of the paper's linear ramp
  const double beta_late = 5.0;   // deep anneal, near-frozen dynamics
  const std::size_t burn_in = 300;
  const std::size_t timed = 2000;

  const SweepRates early =
      measure_sweep_rates(ising, adj, beta_early, burn_in, timed);
  const SweepRates late =
      measure_sweep_rates(ising, adj, beta_late, burn_in, timed);
  const double pbit_early =
      measure_pbit_rate(ising, beta_early, burn_in, timed);
  const double pbit_late = measure_pbit_rate(ising, beta_late, burn_in, timed);

  // The production Metropolis engine over the full anneal ramp.
  const std::size_t anneal_sweeps = 1000;
  const double anneal_rate = measure_anneal_rate(ising, beta_late,
                                                 anneal_sweeps);
  // The p-bit engine over Table I's inner run: 1000 MCS, beta 0 -> 10.
  const double pbit_beta_max = 10.0;
  const double pbit_anneal_rate =
      measure_pbit_anneal_rate(ising, pbit_beta_max, anneal_sweeps, 1);
  // The same ramp over the serving run length, 30 MCS, where the run
  // start is a large share of each run; 100 runs per timing.
  const std::size_t short_sweeps = 30;
  const double pbit_short_rate =
      measure_pbit_anneal_rate(ising, pbit_beta_max, short_sweeps, 100);

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  const auto phase_json = [&](const char* name, double beta,
                              const SweepRates& rates, const char* trailer) {
    std::fprintf(f,
                 "    {\"phase\": \"%s\", \"beta\": %.3f, "
                 "\"recompute_sweeps_per_sec\": %.1f, "
                 "\"incremental_sweeps_per_sec\": %.1f, "
                 "\"speedup\": %.3f}%s\n",
                 name, beta, rates.recompute_sweeps_per_sec,
                 rates.incremental_sweeps_per_sec, rates.speedup(), trailer);
  };
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"instance\": \"qkp_n200_density25\",\n");
  std::fprintf(f, "  \"spins\": %zu,\n", ising.n());
  std::fprintf(f, "  \"edges\": %zu,\n", adj.edge_count());
  std::fprintf(f, "  \"dynamics\": \"metropolis\",\n");
  std::fprintf(f, "  \"timed_sweeps\": %zu,\n", timed);
  std::fprintf(f, "  \"phases\": [\n");
  phase_json("early", beta_early, early, ",");
  phase_json("late", beta_late, late, "");
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"metropolis_anneal\": {\"sweeps\": %zu, "
               "\"schedule\": \"linear_beta_0_to_%.1f\", "
               "\"sweeps_per_sec\": %.1f},\n",
               anneal_sweeps, beta_late, anneal_rate);
  std::fprintf(f,
               "  \"pbit_sequential\": {\"dense_rows\": %s, "
               "\"beta_early\": %.3f, \"sweeps_per_sec_early\": %.1f, "
               "\"beta_late\": %.3f, \"sweeps_per_sec_late\": %.1f},\n",
               adj.dense() ? "true" : "false",
               beta_early, pbit_early, beta_late, pbit_late);
  std::fprintf(f,
               "  \"pbit_anneal\": {\"sweeps\": %zu, "
               "\"schedule\": \"linear_beta_0_to_%.1f\", "
               "\"sweeps_per_sec\": %.1f},\n",
               anneal_sweeps, pbit_beta_max, pbit_anneal_rate);
  std::fprintf(f,
               "  \"pbit_anneal_short\": {\"sweeps\": %zu, "
               "\"schedule\": \"linear_beta_0_to_%.1f\", "
               "\"sweeps_per_sec\": %.1f},\n",
               short_sweeps, pbit_beta_max, pbit_short_rate);
  std::fprintf(f, "  \"speedup_early\": %.3f,\n", early.speedup());
  std::fprintf(f, "  \"speedup_late\": %.3f\n", late.speedup());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf(
      "%s: incremental early %.2fx late %.2fx | "
      "Metropolis anneal sweeps/s %.0f | "
      "p-bit sweeps/s early %.0f late %.0f anneal %.0f short %.0f\n",
      path, early.speedup(), late.speedup(), anneal_rate, pbit_early,
      pbit_late, pbit_anneal_rate, pbit_short_rate);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_sweep.json";
  return write_bench_sweep_json(path);
}
