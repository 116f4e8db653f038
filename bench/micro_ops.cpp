// google-benchmark micro benchmarks for the hot paths:
//   * p-bit Monte-Carlo sweep throughput (the quantity the paper budgets
//     in MCS),
//   * the O(n) lambda refresh (LagrangianModel::set_lambda) vs a full
//     model rebuild — the optimization that makes the SAIM outer loop
//     essentially free,
//   * energy evaluations,
//   * one QKP-200 model set-up, stage by stage (gen, map, build, bind),
//   * recompute-every-visit vs incremental sweeps,
//   * the start of every inner run: LocalFieldState::reset (all coupling
//     inputs plus the start energy) and the energy on its own.
//
// The BENCH_sweep.json report (sweep-engine throughput comparison, CI
// floor) lives in bench/sweep_rates.cpp, which does not need
// google-benchmark.
#include <benchmark/benchmark.h>

#include <vector>

#include "anneal/backend.hpp"
#include "pbit/pbit_machine.hpp"
#include "sweep_common.hpp"

namespace {

using namespace saim;
using benchfix::bench_instance;
using benchfix::incremental_sweep;
using benchfix::recompute_sweep;

void BM_PbitSweep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto density = static_cast<int>(state.range(1));
  const auto inst = bench_instance(n, density);
  const auto mapping = problems::qkp_to_problem(inst);
  lagrange::LagrangianModel model(mapping.problem, 2.0);
  pbit::PBitMachine machine(model.ising());
  util::Xoshiro256pp rng(1);
  pbit::AnnealOptions opts;
  opts.sweeps = 10;
  for (auto _ : state) {
    auto result =
        machine.anneal(pbit::Schedule::linear(10.0), opts, rng);
    benchmark::DoNotOptimize(result.last_energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10 * static_cast<std::int64_t>(model.n()));
  state.counters["MCS/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 10.0,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PbitSweep)
    ->Args({100, 25})
    ->Args({100, 50})
    ->Args({200, 50})
    ->Args({300, 50});

void BM_LambdaRefresh(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)),
                                   50);
  const auto mapping = problems::qkp_to_problem(inst);
  lagrange::LagrangianModel model(mapping.problem, 2.0);
  std::vector<double> lambda = {0.0};
  for (auto _ : state) {
    lambda[0] += 0.01;
    model.set_lambda(lambda);
    benchmark::DoNotOptimize(model.ising().field(0));
  }
}
BENCHMARK(BM_LambdaRefresh)->Arg(100)->Arg(200)->Arg(300);

void BM_FullModelRebuild(benchmark::State& state) {
  // The naive alternative to set_lambda: rebuild the Lagrangian from
  // scratch every iteration. Compare with BM_LambdaRefresh.
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)),
                                   50);
  const auto mapping = problems::qkp_to_problem(inst);
  for (auto _ : state) {
    lagrange::LagrangianModel model(mapping.problem, 2.0);
    benchmark::DoNotOptimize(model.ising().field(0));
  }
}
BENCHMARK(BM_FullModelRebuild)->Arg(100)->Arg(200)->Arg(300);

void BM_QuboEnergy(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)),
                                   50);
  const auto mapping = problems::qkp_to_problem(inst);
  util::Xoshiro256pp rng(2);
  ising::Bits x(mapping.problem.n());
  for (auto& b : x) b = rng.bernoulli(0.5) ? 1 : 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapping.problem.objective().energy(x));
  }
}
BENCHMARK(BM_QuboEnergy)->Arg(100)->Arg(300);

enum class SetupStage { kGen, kMap, kBuild, kBind };

void BM_ModelSetup(benchmark::State& state, SetupStage stage) {
  // One QKP-200 model set-up, a stage at a time: what a service worker pays
  // on a model-cache miss and perfbench's algo1_qkp200 per instance.
  // gen = make_paper_qkp, map = qkp_to_problem, build = LagrangianModel at
  // P = 2dN, bind = a fresh p-bit backend bound to the model. Each stage
  // runs on the previous stages' output, built once outside the loop.
  constexpr std::size_t kN = 200;
  const auto inst = bench_instance(kN, 50);
  const auto mapping = problems::qkp_to_problem(inst);
  const double penalty = lagrange::heuristic_penalty(mapping.problem, 2.0);
  const lagrange::LagrangianModel model(mapping.problem, penalty);
  for (auto _ : state) {
    switch (stage) {
      case SetupStage::kGen: {
        auto generated = bench_instance(kN, 50);
        benchmark::DoNotOptimize(generated.capacity());
        break;
      }
      case SetupStage::kMap: {
        auto mapped = problems::qkp_to_problem(inst);
        benchmark::DoNotOptimize(mapped.problem.n());
        break;
      }
      case SetupStage::kBuild: {
        lagrange::LagrangianModel built(mapping.problem, penalty);
        benchmark::DoNotOptimize(built.ising().offset());
        break;
      }
      case SetupStage::kBind: {
        anneal::PBitBackend backend(pbit::Schedule::linear(10.0), 1000);
        backend.bind(model.ising());
        benchmark::DoNotOptimize(&backend);
        benchmark::ClobberMemory();
        break;
      }
    }
  }
}
BENCHMARK_CAPTURE(BM_ModelSetup, gen, SetupStage::kGen);
BENCHMARK_CAPTURE(BM_ModelSetup, map, SetupStage::kMap);
BENCHMARK_CAPTURE(BM_ModelSetup, build, SetupStage::kBuild);
BENCHMARK_CAPTURE(BM_ModelSetup, bind, SetupStage::kBind);

void BM_QkpGenerate(benchmark::State& state) {
  problems::QkpGeneratorParams params;
  params.n = static_cast<std::size_t>(state.range(0));
  params.density = 0.5;
  for (auto _ : state) {
    params.seed++;
    auto inst = problems::generate_qkp(params);
    benchmark::DoNotOptimize(inst.capacity());
  }
}
BENCHMARK(BM_QkpGenerate)->Arg(100)->Arg(300);

void BM_SweepRecompute(benchmark::State& state) {
  const auto inst = bench_instance(200, 25);
  const auto mapping = problems::qkp_to_problem(inst);
  lagrange::LagrangianModel model(mapping.problem, 2.0);
  const ising::Adjacency adj(model.ising());
  const double beta = static_cast<double>(state.range(0)) / 10.0;
  util::Xoshiro256pp rng(5);
  ising::Spins m(model.n());
  for (auto& s : m) s = rng.bernoulli(0.5) ? 1 : -1;
  for (auto _ : state) {
    recompute_sweep(model.ising(), adj, m, beta, rng);
    benchmark::DoNotOptimize(m.data());
  }
  state.counters["sweeps/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SweepRecompute)->Arg(1)->Arg(50);

void BM_SweepIncremental(benchmark::State& state) {
  const auto inst = bench_instance(200, 25);
  const auto mapping = problems::qkp_to_problem(inst);
  lagrange::LagrangianModel model(mapping.problem, 2.0);
  const ising::Adjacency adj(model.ising());
  const double beta = static_cast<double>(state.range(0)) / 10.0;
  util::Xoshiro256pp rng(5);
  ising::Spins m(model.n());
  for (auto& s : m) s = rng.bernoulli(0.5) ? 1 : -1;
  ising::LocalFieldState lfs(model.ising(), adj);
  lfs.reset(m);
  for (auto _ : state) {
    incremental_sweep(lfs, m, beta, rng);
    benchmark::DoNotOptimize(m.data());
  }
  state.counters["sweeps/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SweepIncremental)->Arg(1)->Arg(50);

/// Random start states for the run-start benches, cycled so that no one
/// state sits in the caches.
std::vector<ising::Spins> start_states(std::size_t n) {
  util::Xoshiro256pp rng(7);
  std::vector<ising::Spins> states(16, ising::Spins(n));
  for (auto& m : states) {
    for (auto& s : m) s = rng.bernoulli(0.5) ? 1 : -1;
  }
  return states;
}

void BM_RunStart(benchmark::State& state) {
  const auto inst = bench_instance(200, 25);
  const auto mapping = problems::qkp_to_problem(inst);
  lagrange::LagrangianModel model(mapping.problem, 2.0);
  const ising::Adjacency adj(model.ising());
  const auto states = start_states(model.n());
  ising::LocalFieldState lfs(model.ising(), adj);
  std::size_t k = 0;
  for (auto _ : state) {
    lfs.reset(states[k++ % states.size()]);
    benchmark::DoNotOptimize(lfs.coupling_inputs().data());
    benchmark::DoNotOptimize(lfs.energy());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RunStart);

void BM_RunStartEnergy(benchmark::State& state) {
  const auto inst = bench_instance(200, 25);
  const auto mapping = problems::qkp_to_problem(inst);
  lagrange::LagrangianModel model(mapping.problem, 2.0);
  const auto states = start_states(model.n());
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.ising().energy(states[k++ % states.size()]));
  }
}
BENCHMARK(BM_RunStartEnergy);

}  // namespace

BENCHMARK_MAIN();
