// Standalone sweep-throughput report: times the recompute / incremental /
// SIMD-vectorized / bit-sliced sweep engines and the production p-bit
// machine on the Lagrangian Ising model of the paper's QKP-200 instance
// 200-25-1 and on a sparse ±1 spin glass, and writes BENCH_sweep.json.
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

  // Bit-sliced engine: aggregate per-replica rates at 1 lane (pure SIMD
  // kernels, no word parallelism), 32 lanes (the run_batch dispatch
  // threshold) and a full 64-lane word.
  struct SlicedPhase {
    double beta;
    double vectorized;   // 1 lane
    double replicas32;   // half word
    double replicas64;   // full word
  };
  const auto sliced_phase = [&](double beta) {
    SlicedPhase p;
    p.beta = beta;
    p.vectorized = measure_bitsliced_rate(ising, adj, beta, burn_in, timed, 1);
    p.replicas32 =
        measure_bitsliced_rate(ising, adj, beta, burn_in, timed, 32);
    p.replicas64 =
        measure_bitsliced_rate(ising, adj, beta, burn_in, timed, 64);
    return p;
  };
  const SlicedPhase sliced_early = sliced_phase(beta_early);
  const SlicedPhase sliced_late = sliced_phase(beta_late);

  const double bitsliced_speedup_early =
      sliced_early.replicas64 / early.incremental_sweeps_per_sec;
  const double bitsliced_speedup_late =
      sliced_late.replicas64 / late.incremental_sweeps_per_sec;

  // Production scalar engine vs the bit-sliced engine over the full anneal
  // ramp at a 64-replica batch, on the dense QKP Lagrangian.
  const std::size_t agg_sweeps = 1000;
  const std::size_t agg_replicas = 64;
  const AggregateRates aggregate =
      measure_anneal_aggregate(ising, adj, beta_late, agg_sweeps,
                               agg_replicas);

  // Headline number (and the CI floor): fixed-beta sweep throughput on a
  // sparse spin glass, the regime the word-parallel engine is built for.
  // The dense Lagrangian numbers above stay in the file — they are
  // bounded by apply-flips memory traffic (a 4-lane plane walk fires when
  // ANY of its lanes flips, ~4x the scalar engine's bytes per lane at
  // uncorrelated flip rates), not by the sweep kernels.
  const ising::IsingModel glass = sparse_glass(512, 11);
  const ising::Adjacency glass_adj(glass);
  const SweepRates glass_late =
      measure_sweep_rates(glass, glass_adj, beta_late, burn_in, timed);
  const double glass_bitsliced32 = measure_bitsliced_rate(
      glass, glass_adj, beta_late, burn_in, timed, 32);
  const double glass_bitsliced64 = measure_bitsliced_rate(
      glass, glass_adj, beta_late, burn_in, timed, 64);
  const double glass_speedup_late32 =
      glass_bitsliced32 / glass_late.incremental_sweeps_per_sec;
  const double glass_speedup_late =
      glass_bitsliced64 / glass_late.incremental_sweeps_per_sec;
  const AggregateRates glass_aggregate = measure_anneal_aggregate(
      glass, glass_adj, beta_late, agg_sweeps, agg_replicas);

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  const auto phase_json = [&](const char* name, const SweepRates& rates,
                              const SlicedPhase& sliced, double speedup64,
                              const char* trailer) {
    std::fprintf(f,
                 "    {\"phase\": \"%s\", \"beta\": %.3f, "
                 "\"recompute_sweeps_per_sec\": %.1f, "
                 "\"incremental_sweeps_per_sec\": %.1f, "
                 "\"speedup\": %.3f,\n",
                 name, sliced.beta, rates.recompute_sweeps_per_sec,
                 rates.incremental_sweeps_per_sec, rates.speedup());
    std::fprintf(f,
                 "     \"vectorized_sweeps_per_sec\": %.1f, "
                 "\"bitsliced32_replica_sweeps_per_sec\": %.1f, "
                 "\"bitsliced64_replica_sweeps_per_sec\": %.1f, "
                 "\"bitsliced_speedup\": %.3f}%s\n",
                 sliced.vectorized, sliced.replicas32, sliced.replicas64,
                 speedup64, trailer);
  };
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"instance\": \"qkp_n200_density25\",\n");
  std::fprintf(f, "  \"spins\": %zu,\n", ising.n());
  std::fprintf(f, "  \"edges\": %zu,\n", adj.edge_count());
  std::fprintf(f, "  \"dynamics\": \"metropolis\",\n");
  std::fprintf(f, "  \"timed_sweeps\": %zu,\n", timed);
  std::fprintf(f, "  \"phases\": [\n");
  phase_json("early", early, sliced_early, bitsliced_speedup_early, ",");
  phase_json("late", late, sliced_late, bitsliced_speedup_late, "");
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"bitsliced_aggregate\": {\"replicas\": %zu, "
               "\"sweeps\": %zu, \"schedule\": \"linear_beta_0_to_%.1f\", "
               "\"scalar_replica_sweeps_per_sec\": %.1f, "
               "\"bitsliced_replica_sweeps_per_sec\": %.1f, "
               "\"speedup\": %.3f},\n",
               agg_replicas, agg_sweeps, beta_late,
               aggregate.scalar_replica_sweeps_per_sec,
               aggregate.bitsliced_replica_sweeps_per_sec,
               aggregate.speedup());
  std::fprintf(f,
               "  \"sparse_glass\": {\"instance\": \"spin_glass_n512_deg6\", "
               "\"spins\": %zu, \"edges\": %zu,\n",
               glass.n(), glass_adj.edge_count());
  std::fprintf(f,
               "    \"incremental_sweeps_per_sec\": %.1f, "
               "\"bitsliced32_replica_sweeps_per_sec\": %.1f, "
               "\"bitsliced64_replica_sweeps_per_sec\": %.1f,\n",
               glass_late.incremental_sweeps_per_sec, glass_bitsliced32,
               glass_bitsliced64);
  std::fprintf(f,
               "    \"bitsliced_speedup_late32\": %.3f, "
               "\"bitsliced_speedup_late\": %.3f,\n",
               glass_speedup_late32, glass_speedup_late);
  std::fprintf(f,
               "    \"scalar_anneal_replica_sweeps_per_sec\": %.1f, "
               "\"bitsliced_anneal_replica_sweeps_per_sec\": %.1f, "
               "\"bitsliced_aggregate_speedup\": %.3f},\n",
               glass_aggregate.scalar_replica_sweeps_per_sec,
               glass_aggregate.bitsliced_replica_sweeps_per_sec,
               glass_aggregate.speedup());
  std::fprintf(f,
               "  \"pbit_sequential\": {\"dense_rows\": %s, "
               "\"beta_early\": %.3f, \"sweeps_per_sec_early\": %.1f, "
               "\"beta_late\": %.3f, \"sweeps_per_sec_late\": %.1f},\n",
               ising::LocalFieldState::uses_dense_rows(adj) ? "true" : "false",
               beta_early, pbit_early, beta_late, pbit_late);
  std::fprintf(f, "  \"speedup_early\": %.3f,\n", early.speedup());
  std::fprintf(f, "  \"speedup_late\": %.3f,\n", late.speedup());
  std::fprintf(f, "  \"bitsliced_speedup_early\": %.3f,\n",
               bitsliced_speedup_early);
  std::fprintf(f, "  \"bitsliced_speedup_late\": %.3f,\n",
               bitsliced_speedup_late);
  std::fprintf(f, "  \"bitsliced_aggregate_speedup\": %.3f,\n",
               aggregate.speedup());
  std::fprintf(f, "  \"bitsliced_sparse_speedup_late\": %.3f,\n",
               glass_speedup_late);
  std::fprintf(f, "  \"bitsliced_sparse_aggregate_speedup\": %.3f\n",
               glass_aggregate.speedup());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf(
      "%s: incremental early %.2fx late %.2fx | "
      "bit-sliced x64 dense early %.2fx late %.2fx aggregate %.2fx | "
      "sparse late x32 %.2fx x64 %.2fx aggregate %.2fx | "
      "p-bit sweeps/s early %.0f late %.0f\n",
      path, early.speedup(), late.speedup(), bitsliced_speedup_early,
      bitsliced_speedup_late, aggregate.speedup(), glass_speedup_late32,
      glass_speedup_late, glass_aggregate.speedup(), pbit_early, pbit_late);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_sweep.json";
  return write_bench_sweep_json(path);
}
