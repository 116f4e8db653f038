// Bit-exactness of the bit-sliced multi-replica engine against the scalar
// sweep engines — the contract that makes the run_batch dispatch and the
// fused solve_batch rounds pure performance policy. Parity is pinned on
// arbitrary (non-dyadic) random models, not just the dyadic ones the
// incremental-engine tests use: the engine mirrors every scalar fp
// expression operation for operation, so EQ on doubles is exact.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "anneal/backend.hpp"
#include "anneal/simulated_annealing.hpp"
#include "anneal/slice_driver.hpp"
#include "core/batch_solver.hpp"
#include "core/penalty_method.hpp"
#include "core/saim_solver.hpp"
#include "ising/bitslice.hpp"
#include "ising/ising_model.hpp"
#include "lagrange/lagrangian_model.hpp"
#include "pbit/pbit_machine.hpp"
#include "pbit/schedule.hpp"
#include "problems/qkp.hpp"
#include "util/accept_bounds.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"

namespace saim {
namespace {

// Random couplings/fields — deliberately NOT dyadic, so every rounding in
// the sweep matters and parity failures cannot hide.
ising::IsingModel random_model(std::size_t n, std::uint64_t seed,
                               double density = 0.4) {
  ising::IsingModel model(n);
  util::Xoshiro256pp rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform01() < density) model.add_coupling(i, j, rng.uniform_sym());
    }
    model.add_field(i, 0.3 * rng.uniform_sym());
  }
  return model;
}

// Dyadic model: couplings/fields are small multiples of 1/8.
ising::IsingModel dyadic_model(std::size_t n, std::uint64_t seed) {
  ising::IsingModel model(n);
  util::Xoshiro256pp rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform01() < 0.5) {
        model.add_coupling(i, j, 0.125 * static_cast<double>(rng.range(-8, 8)));
      }
    }
    model.add_field(i, 0.125 * static_cast<double>(rng.range(-4, 4)));
  }
  return model;
}

struct ScalarRun {
  ising::Spins last;
  double last_energy;
  ising::Spins best;
  double best_energy;
  std::size_t sweeps;
};

// The scalar reference for lane r of a cold batch: the exact run_batch
// contract, one replica at a time.
std::vector<ScalarRun> scalar_pbit(const pbit::PBitMachine& machine,
                                   const pbit::Schedule& schedule,
                                   std::uint64_t base, std::size_t replicas,
                                   std::size_t sweeps, bool track_best,
                                   const std::vector<ising::Spins>& seeds) {
  pbit::AnnealOptions opts;
  opts.sweeps = sweeps;
  opts.track_best = track_best;
  std::vector<ScalarRun> out;
  for (std::size_t r = 0; r < replicas; ++r) {
    util::Xoshiro256pp rng(util::derive_seed(base, r));
    const bool seeded = r < seeds.size() && seeds[r].size() == machine.n();
    auto res = seeded ? machine.anneal_from(seeds[r], schedule, opts, rng)
                      : machine.anneal(schedule, opts, rng);
    out.push_back({res.last, res.last_energy, res.best, res.best_energy,
                   res.sweeps});
  }
  return out;
}

std::vector<ScalarRun> scalar_metropolis(
    const anneal::MetropolisSa& sa, const pbit::Schedule& schedule,
    std::uint64_t base, std::size_t replicas, std::size_t sweeps,
    bool track_best, const std::vector<ising::Spins>& seeds) {
  anneal::SaOptions opts;
  opts.sweeps = sweeps;
  opts.track_best = track_best;
  const std::size_t n = sa.model().n();
  std::vector<ScalarRun> out;
  for (std::size_t r = 0; r < replicas; ++r) {
    util::Xoshiro256pp rng(util::derive_seed(base, r));
    const bool seeded = r < seeds.size() && seeds[r].size() == n;
    auto res = seeded ? sa.run_from(seeds[r], schedule, opts, rng)
                      : sa.run(schedule, opts, rng);
    out.push_back({res.last, res.last_energy, res.best, res.best_energy,
                   res.sweeps});
  }
  return out;
}

std::vector<anneal::RunResult> sliced(const ising::IsingModel& model,
                                      const ising::Adjacency& adjacency,
                                      const pbit::Schedule& schedule,
                                      ising::SliceDynamics dynamics,
                                      std::uint64_t base, std::size_t replicas,
                                      std::size_t sweeps, bool track_best,
                                      const std::vector<ising::Spins>& seeds) {
  anneal::SlicePlan plan =
      anneal::make_slice_plan(model, base, replicas, seeds);
  const std::vector<double> betas = anneal::make_beta_table(schedule, sweeps);
  ising::SliceOptions so;
  so.dynamics = dynamics;
  so.betas = betas;
  so.track_best = track_best;
  auto split = anneal::run_slice_plans(adjacency, {&plan, 1}, so);
  return std::move(split.front());
}

void expect_lane_eq(const ScalarRun& s, const anneal::RunResult& e,
                    std::size_t r) {
  EXPECT_EQ(s.last, e.last) << "lane " << r;
  EXPECT_EQ(s.last_energy, e.last_energy) << "lane " << r;
  EXPECT_EQ(s.best, e.best) << "lane " << r;
  EXPECT_EQ(s.best_energy, e.best_energy) << "lane " << r;
  EXPECT_EQ(s.sweeps, e.sweeps) << "lane " << r;
}

// Replica counts straddling the word width: a partial chunk (5), a partial
// group with a partial chunk (37), and more than one group (70).
constexpr std::size_t kCounts[] = {5, 37, 70};

TEST(BitsliceParity, PbitColdLanesMatchScalarOnRandomModel) {
  const auto model = random_model(28, 11);
  const pbit::PBitMachine machine(model);
  const auto schedule = pbit::Schedule::linear(4.0);
  for (const std::size_t replicas : kCounts) {
    for (const bool track_best : {false, true}) {
      const auto ref = scalar_pbit(machine, schedule, 77, replicas, 40,
                                   track_best, {});
      const auto got =
          sliced(model, machine.adjacency(), schedule,
                 ising::SliceDynamics::kPbit, 77, replicas, 40, track_best, {});
      ASSERT_EQ(ref.size(), got.size());
      for (std::size_t r = 0; r < replicas; ++r) expect_lane_eq(ref[r], got[r], r);
    }
  }
}

TEST(BitsliceParity, MetropolisColdLanesMatchScalarOnRandomModel) {
  const auto model = random_model(30, 23);
  const anneal::MetropolisSa sa(model);
  const auto schedule = pbit::Schedule::linear(5.0);
  for (const std::size_t replicas : kCounts) {
    for (const bool track_best : {false, true}) {
      const auto ref = scalar_metropolis(sa, schedule, 99, replicas, 40,
                                         track_best, {});
      const auto got = sliced(model, sa.adjacency(), schedule,
                              ising::SliceDynamics::kMetropolis, 99, replicas,
                              40, track_best, {});
      ASSERT_EQ(ref.size(), got.size());
      for (std::size_t r = 0; r < replicas; ++r) expect_lane_eq(ref[r], got[r], r);
    }
  }
}

TEST(BitsliceParity, DyadicModelParityBothDynamics) {
  const auto model = dyadic_model(24, 5);
  const pbit::PBitMachine machine(model);
  const anneal::MetropolisSa sa(model);
  const auto schedule = pbit::Schedule::linear(3.0);
  const auto pref = scalar_pbit(machine, schedule, 3, 37, 30, true, {});
  const auto pgot = sliced(model, machine.adjacency(), schedule,
                           ising::SliceDynamics::kPbit, 3, 37, 30, true, {});
  for (std::size_t r = 0; r < 37; ++r) expect_lane_eq(pref[r], pgot[r], r);
  const auto mref = scalar_metropolis(sa, schedule, 4, 37, 30, true, {});
  const auto mgot =
      sliced(model, sa.adjacency(), schedule, ising::SliceDynamics::kMetropolis,
             4, 37, 30, true, {});
  for (std::size_t r = 0; r < 37; ++r) expect_lane_eq(mref[r], mgot[r], r);
}

TEST(BitsliceParity, WarmSeededLanesMatchScalar) {
  const auto model = random_model(26, 31);
  const pbit::PBitMachine machine(model);
  const anneal::MetropolisSa sa(model);
  const auto schedule = pbit::Schedule::linear(4.0);

  // Seed the first 3 of 36 replicas; the rest cold-start.
  std::vector<ising::Spins> seeds;
  util::Xoshiro256pp seed_rng(8);
  for (int k = 0; k < 3; ++k) {
    ising::Spins s(model.n());
    for (auto& v : s) v = seed_rng.bernoulli(0.5) ? 1 : -1;
    seeds.push_back(std::move(s));
  }

  const auto pref = scalar_pbit(machine, schedule, 55, 36, 35, true, seeds);
  const auto pgot = sliced(model, machine.adjacency(), schedule,
                           ising::SliceDynamics::kPbit, 55, 36, 35, true, seeds);
  for (std::size_t r = 0; r < 36; ++r) expect_lane_eq(pref[r], pgot[r], r);

  const auto mref = scalar_metropolis(sa, schedule, 56, 36, 35, true, seeds);
  const auto mgot =
      sliced(model, sa.adjacency(), schedule, ising::SliceDynamics::kMetropolis,
             56, 36, 35, true, seeds);
  for (std::size_t r = 0; r < 36; ++r) expect_lane_eq(mref[r], mgot[r], r);
}

// run_batch at 33+ replicas silently switches to the bit-sliced engine;
// the caller-visible results must be exactly what the scalar contract
// (replica r on derive_seed(base, r)) produces.
TEST(BitsliceParity, RunBatchDispatchIsInvisibleToCallers) {
  const auto model = random_model(25, 41);
  const auto schedule = pbit::Schedule::linear(4.0);

  anneal::PBitBackend pbit_backend(schedule, 30, pbit::SweepOrder::kSequential,
                                   true);
  pbit_backend.bind(model);
  util::Xoshiro256pp rng1(123);
  const auto batch = pbit_backend.run_batch(rng1, 33);
  ASSERT_EQ(batch.size(), 33u);

  util::Xoshiro256pp rng2(123);
  const std::uint64_t base = rng2();
  const pbit::PBitMachine machine(model);
  const auto ref = scalar_pbit(machine, schedule, base, 33, 30, true, {});
  for (std::size_t r = 0; r < 33; ++r) expect_lane_eq(ref[r], batch[r], r);
  // Both callers' streams must end at the same position.
  EXPECT_EQ(rng1(), rng2());

  anneal::MetropolisSaBackend sa_backend(schedule, 30, true);
  sa_backend.bind(model);
  util::Xoshiro256pp rng3(321);
  const auto sbatch = sa_backend.run_batch(rng3, 33);
  ASSERT_EQ(sbatch.size(), 33u);
  util::Xoshiro256pp rng4(321);
  const std::uint64_t sbase = rng4();
  const anneal::MetropolisSa sa(model);
  const auto sref = scalar_metropolis(sa, schedule, sbase, 33, 30, true, {});
  for (std::size_t r = 0; r < 33; ++r) expect_lane_eq(sref[r], sbatch[r], r);
  EXPECT_EQ(rng3(), rng4());
}

// A stop firing before the batch starts returns the empty batch the
// scalar path returns; one firing mid-run truncates every lane at the
// same between-sweep checkpoint, with valid partial results.
TEST(BitsliceParity, StopTokenSemantics) {
  const auto model = random_model(20, 51);
  const auto schedule = pbit::Schedule::linear(4.0);

  anneal::PBitBackend backend(schedule, 200, pbit::SweepOrder::kSequential,
                              true);
  backend.bind(model);

  util::StopSource pre;
  pre.request_stop();
  backend.set_stop_token(pre.token());
  util::Xoshiro256pp rng(7);
  EXPECT_TRUE(backend.run_batch(rng, 40).empty());
  // The base draw happens regardless of the stop, exactly as the scalar
  // path: the next caller sees the same stream position.
  util::Xoshiro256pp ref_rng(7);
  (void)ref_rng();
  EXPECT_EQ(rng(), ref_rng());

  // Mid-run: stop already set means the engine's first between-sweep poll
  // (t == stop_interval) truncates. Lanes agree on the truncation point
  // and their partial states are self-consistent.
  util::StopSource mid;
  mid.request_stop();
  const auto plan_model = model;
  const pbit::PBitMachine machine(plan_model);
  anneal::SlicePlan plan = anneal::make_slice_plan(plan_model, 9, 40, {});
  const auto betas = anneal::make_beta_table(schedule, 200);
  ising::SliceOptions so;
  so.dynamics = ising::SliceDynamics::kPbit;
  so.betas = betas;
  so.track_best = true;
  const auto token = mid.token();
  so.stop = &token;
  so.stop_interval = 16;
  auto split = anneal::run_slice_plans(machine.adjacency(), {&plan, 1}, so);
  const auto& runs = split.front();
  ASSERT_EQ(runs.size(), 40u);
  for (const auto& r : runs) {
    EXPECT_EQ(r.sweeps, 16u);  // truncated at the first poll
    // Incrementally tracked, so ulp-level drift vs a fresh dense sum is
    // expected (the scalar engine drifts identically — pinned below).
    EXPECT_NEAR(r.last_energy, plan_model.energy(r.last), 1e-9);
    EXPECT_LE(r.best_energy, r.last_energy);
  }

  // The truncated prefix must equal a scalar run over the same 16 sweeps.
  const auto ref = scalar_pbit(machine, schedule, 9, 3, 200, true, {});
  (void)ref;  // scalar has no 16-sweep variant; pin via a 16-sweep schedule:
  pbit::AnnealOptions opts;
  opts.sweeps = 200;
  opts.track_best = true;
  util::Xoshiro256pp lane0(util::derive_seed(9, 0));
  // Scalar engine truncated the same way via its own stop support.
  opts.stop = &token;
  opts.stop_interval = 16;
  const auto sres = machine.anneal(schedule, opts, lane0);
  EXPECT_EQ(sres.sweeps, 16u);
  EXPECT_EQ(sres.last, runs[0].last);
  EXPECT_EQ(sres.last_energy, runs[0].last_energy);
  EXPECT_EQ(sres.best, runs[0].best);
  EXPECT_EQ(sres.best_energy, runs[0].best_energy);
}

// Fused solve_batch rounds (one bit-sliced dispatch carrying every
// member's replicas) must be bit-identical to solo SaimSolver runs.
TEST(BitsliceParity, FusedBatchMembersMatchSoloSolves) {
  const auto instance = problems::make_paper_qkp(24, 50, 3);
  const auto converted = problems::qkp_to_problem(instance);
  const auto& problem = converted.problem;
  const auto evaluator = core::make_qkp_evaluator(instance);

  core::SaimOptions base_options;
  base_options.iterations = 8;
  base_options.replicas = 40;  // >= kBitsliceMinReplicas: fused + sliced
  base_options.eta = 10.0;

  std::vector<core::SaimOptions> member_options;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    core::SaimOptions o = base_options;
    o.seed = seed;
    o.iterations = 6 + static_cast<std::size_t>(seed);  // staggered drain
    o.record_history = (seed == 2);  // exercises the lambda re-apply path
    member_options.push_back(o);
  }

  std::vector<core::BatchJob> jobs;
  for (const auto& o : member_options) {
    core::BatchJob job;
    job.options = o;
    job.evaluator = evaluator;
    jobs.push_back(std::move(job));
  }
  anneal::PBitBackend batch_backend(pbit::Schedule::linear(4.0), 50,
                                    pbit::SweepOrder::kSequential, true);
  ASSERT_FALSE(batch_backend.supports_fused_batch());  // not bound yet
  lagrange::LagrangianModel model(
      problem, core::effective_penalty(problem, base_options));
  batch_backend.bind(model.ising());
  const auto outcomes =
      core::solve_batch(model, batch_backend, std::move(jobs));

  for (std::size_t j = 0; j < member_options.size(); ++j) {
    anneal::PBitBackend solo_backend(pbit::Schedule::linear(4.0), 50,
                                     pbit::SweepOrder::kSequential, true);
    core::SaimSolver solver(problem, solo_backend, member_options[j]);
    const auto solo = solver.solve(evaluator);

    const auto& fused = outcomes[j].result;
    EXPECT_TRUE(outcomes[j].error.empty()) << outcomes[j].error;
    EXPECT_EQ(fused.status, solo.status) << "member " << j;
    EXPECT_EQ(fused.best_cost, solo.best_cost) << "member " << j;
    EXPECT_EQ(fused.best_config, solo.best_config) << "member " << j;
    EXPECT_EQ(fused.feasible_count, solo.feasible_count) << "member " << j;
    EXPECT_EQ(fused.total_runs, solo.total_runs) << "member " << j;
    EXPECT_EQ(fused.total_sweeps, solo.total_sweeps) << "member " << j;
    ASSERT_EQ(fused.history.size(), solo.history.size()) << "member " << j;
    for (std::size_t k = 0; k < fused.history.size(); ++k) {
      EXPECT_EQ(fused.history[k].lagrangian_energy,
                solo.history[k].lagrangian_energy)
          << "member " << j << " iteration " << k;
      EXPECT_EQ(fused.history[k].lambda, solo.history[k].lambda)
          << "member " << j << " iteration " << k;
    }
  }
}

// The scalar engines now run the same tiered acceptance tests the
// bit-sliced engine uses (util/accept_bounds); the contract is that every
// tier decision is bit-identical to calling libm on the draw. Dense
// random sweeps plus the edges where tiers hand over: u = 0 (libm exp can
// underflow to exactly 0), u just above/below 2^-53, args in the
// tier-1-ambiguous band, deep-negative args, |x| straddling the tanh
// saturation threshold.
TEST(ScalarTieredAcceptance, ExpAcceptMatchesLibmEverywhere) {
  util::Xoshiro256pp rng(2024);
  for (int i = 0; i < 200000; ++i) {
    const double u = rng.uniform01();
    // Mix of typical Metropolis args (small negative) and extreme ones.
    const double scale = (i % 3 == 0) ? 800.0 : 8.0;
    const double arg = -scale * rng.uniform01();
    ASSERT_EQ(util::exp_accept(u, arg), u < std::exp(arg))
        << "u=" << u << " arg=" << arg;
  }
  // Edge draws: u carries no (or minimal) exponent information.
  for (const double u : {0.0, 0x1.0p-53, 0x1.0p-52, 0x1.fffffffffffffp-1}) {
    for (const double arg : {0.0, -1e-9, -0.5, -36.8, -700.0, -746.0,
                             -1000.0}) {
      ASSERT_EQ(util::exp_accept(u, arg), u < std::exp(arg))
          << "u=" << u << " arg=" << arg;
    }
  }
  // Args placed so u's biased exponent lands in the tier-1 ambiguous
  // band [r+1022, r+1023): the bounds/libm tiers must take over.
  for (int e = 1; e <= 60; ++e) {
    const double u = std::ldexp(1.0 + 1e-9, -e);  // exponent 1023 - e
    for (const double nudge : {-0.4, 0.0, 0.4}) {
      const double arg = (-e + nudge) * 0.6931471805599453094;
      ASSERT_EQ(util::exp_accept(u, arg), u < std::exp(arg))
          << "u=" << u << " arg=" << arg;
    }
  }
}

TEST(ScalarTieredAcceptance, TanhSignMatchesLibmEverywhere) {
  util::Xoshiro256pp rng(4048);
  for (int i = 0; i < 200000; ++i) {
    const double u = rng.uniform_sym();
    const double scale = (i % 3 == 0) ? 40.0 : 4.0;
    const double x = scale * rng.uniform_sym();
    ASSERT_EQ(util::tanh_sign_nonneg(x, u), std::tanh(x) + u >= 0.0)
        << "x=" << x << " u=" << u;
  }
  // The saturation handover and the ambiguous band next to ±1.
  for (const double x : {-25.0, -20.0, -19.999999, -1.0, -1e-12, 0.0,
                         1e-12, 1.0, 19.999999, 20.0, 25.0}) {
    for (const double u : {-1.0, -(1.0 - 0x1.0p-48), -(1.0 - 0x1.0p-49),
                           -0.5, 0.0, 0.5, 1.0 - 0x1.0p-49,
                           1.0 - 0x1.0p-48, 0x1.fffffffffffffp-1}) {
      ASSERT_EQ(util::tanh_sign_nonneg(x, u), std::tanh(x) + u >= 0.0)
          << "x=" << x << " u=" << u;
    }
  }
}

// Thread count must not change results: groups are independent.
TEST(BitsliceParity, ThreadCountInvariance) {
  const auto model = random_model(22, 61);
  const anneal::MetropolisSa sa(model);
  const auto schedule = pbit::Schedule::linear(5.0);
  const auto betas = anneal::make_beta_table(schedule, 30);

  auto run_with_threads = [&](std::size_t threads) {
    anneal::SlicePlan plan = anneal::make_slice_plan(model, 17, 130, {});
    ising::SliceOptions so;
    so.dynamics = ising::SliceDynamics::kMetropolis;
    so.betas = betas;
    so.track_best = true;
    so.threads = threads;
    return anneal::run_slice_plans(sa.adjacency(), {&plan, 1}, so);
  };
  const auto serial = run_with_threads(1);
  const auto parallel = run_with_threads(4);
  ASSERT_EQ(serial.front().size(), parallel.front().size());
  for (std::size_t r = 0; r < serial.front().size(); ++r) {
    EXPECT_EQ(serial.front()[r].last, parallel.front()[r].last);
    EXPECT_EQ(serial.front()[r].best_energy, parallel.front()[r].best_energy);
  }
}

}  // namespace
}  // namespace saim
