#include "pbit/pbit_machine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ising/adjacency.hpp"
#include "ising/local_field.hpp"
#include "lagrange/lagrangian_model.hpp"
#include "problems/mkp.hpp"
#include "util/rng.hpp"

namespace saim::pbit {
namespace {

// Small frustrated-free ferromagnet: annealing must find the aligned
// ground states.
ising::IsingModel ferromagnet(std::size_t n, double j = 1.0) {
  ising::IsingModel ising(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = i + 1; k < n; ++k) {
      ising.add_coupling(i, k, j);
    }
  }
  return ising;
}

TEST(PBitMachine, RandomStateIsDeterministicPerSeed) {
  const auto model = ferromagnet(10);
  PBitMachine machine(model);
  util::Xoshiro256pp a(5);
  util::Xoshiro256pp b(5);
  EXPECT_EQ(machine.random_state(a), machine.random_state(b));
}

TEST(PBitMachine, RandomStateHasValidSpins) {
  const auto model = ferromagnet(50);
  PBitMachine machine(model);
  util::Xoshiro256pp rng(1);
  const auto m = machine.random_state(rng);
  for (const auto s : m) {
    EXPECT_TRUE(s == 1 || s == -1);
  }
}

TEST(PBitMachine, AnnealFindsFerromagnetGroundState) {
  const auto model = ferromagnet(12);
  PBitMachine machine(model);
  util::Xoshiro256pp rng(42);
  AnnealOptions opts;
  opts.sweeps = 300;
  const auto result = machine.anneal(Schedule::linear(5.0), opts, rng);
  // Ground state energy: all aligned, -C(12,2) = -66.
  EXPECT_DOUBLE_EQ(result.last_energy, -66.0);
  EXPECT_DOUBLE_EQ(model.energy(result.last), -66.0);
}

TEST(PBitMachine, ReportedEnergyMatchesState) {
  // The incrementally-tracked energy must equal a fresh recomputation.
  ising::IsingModel model(8);
  model.add_coupling(0, 1, -1.0);
  model.add_coupling(2, 3, 2.0);
  model.add_field(4, 0.7);
  model.add_field(5, -0.3);
  model.add_offset(1.5);
  PBitMachine machine(model);
  util::Xoshiro256pp rng(7);
  AnnealOptions opts;
  opts.sweeps = 50;
  const auto result = machine.anneal(Schedule::linear(2.0), opts, rng);
  EXPECT_NEAR(result.last_energy, model.energy(result.last), 1e-9);
}

TEST(PBitMachine, FieldBiasesSpins) {
  // Strong positive field on every spin: at high beta all spins go +1.
  ising::IsingModel model(6);
  for (std::size_t i = 0; i < 6; ++i) model.add_field(i, 5.0);
  PBitMachine machine(model);
  util::Xoshiro256pp rng(11);
  AnnealOptions opts;
  opts.sweeps = 100;
  const auto result = machine.anneal(Schedule::linear(10.0), opts, rng);
  for (const auto s : result.last) {
    EXPECT_EQ(s, 1);
  }
}

TEST(PBitMachine, AnnealFromContinuesGivenState) {
  const auto model = ferromagnet(8);
  PBitMachine machine(model);
  util::Xoshiro256pp rng(9);
  ising::Spins start(8, std::int8_t{1});  // already the ground state
  AnnealOptions opts;
  opts.sweeps = 50;
  // At high fixed beta the machine must stay in the ground state.
  const auto result =
      machine.anneal_from(start, Schedule::constant(20.0), opts, rng);
  EXPECT_DOUBLE_EQ(result.last_energy, model.energy(start));
}

TEST(PBitMachine, SampleInvokesObserverExactly) {
  const auto model = ferromagnet(4);
  PBitMachine machine(model);
  util::Xoshiro256pp rng(2);
  std::size_t calls = 0;
  machine.sample(1.0, 10, 25, rng, [&](const ising::Spins& m) {
    EXPECT_EQ(m.size(), 4u);
    ++calls;
  });
  EXPECT_EQ(calls, 25u);
}

TEST(PBitMachine, ZeroBetaIsUnbiasedCoinFlips) {
  // At beta=0, tanh(0)=0 and each p-bit is a fair coin regardless of input.
  ising::IsingModel model(1);
  model.add_field(0, 100.0);  // huge field must not matter at beta=0
  PBitMachine machine(model);
  util::Xoshiro256pp rng(31);
  std::size_t ups = 0;
  const std::size_t samples = 20000;
  machine.sample(0.0, 0, samples, rng, [&](const ising::Spins& m) {
    if (m[0] == 1) ++ups;
  });
  const double frac = static_cast<double>(ups) / samples;
  EXPECT_NEAR(frac, 0.5, 0.02);
}

TEST(PBitMachine, DeterministicGivenSeed) {
  const auto model = ferromagnet(10);
  PBitMachine machine(model);
  util::Xoshiro256pp a(77);
  util::Xoshiro256pp b(77);
  AnnealOptions opts;
  opts.sweeps = 60;
  const auto ra = machine.anneal(Schedule::linear(2.0), opts, a);
  const auto rb = machine.anneal(Schedule::linear(2.0), opts, b);
  EXPECT_EQ(ra.last, rb.last);
  EXPECT_DOUBLE_EQ(ra.last_energy, rb.last_energy);
}

/// Random non-dyadic model: couplings at `density`, every field set.
ising::IsingModel random_model(std::size_t n, double density,
                               std::uint64_t seed) {
  ising::IsingModel model(n);
  util::Xoshiro256pp rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform01() < density) {
        model.add_coupling(i, j, 2.0 * rng.uniform_sym());
      }
    }
    model.add_field(i, 3.0 * rng.uniform_sym());
  }
  return model;
}

/// Test-local copy of the one-spin-at-a-time p-bit sweep that the blocked
/// kernel replaced: per visit, in order 0..n-1, one uniform_sym draw, the
/// decision tanh(beta*I) + u >= 0 straight from libm (not through util's
/// bracket, which the blocked kernel uses), and the flip applied before
/// the next visit.
void reference_sweep(ising::Spins& m, ising::LocalFieldState& lfs,
                     double beta, util::Xoshiro256pp& rng) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    const double x = beta * lfs.field(i);
    const double u = rng.uniform_sym();
    const std::int8_t next =
        std::tanh(x) + u >= 0.0 ? std::int8_t{1} : std::int8_t{-1};
    if (next != m[i]) lfs.flip(m, i);
  }
}

/// The reference sweep inside PBitMachine::anneal_from's run loop.
AnnealResult reference_anneal(const ising::IsingModel& model,
                              ising::Spins start, const Schedule& schedule,
                              const AnnealOptions& options,
                              util::Xoshiro256pp& rng) {
  const ising::Adjacency adj(model);
  ising::LocalFieldState lfs(model, adj);
  AnnealResult r;
  r.last = std::move(start);
  lfs.reset(r.last);
  for (std::size_t t = 0; t < options.sweeps; ++t) {
    reference_sweep(r.last, lfs, schedule.beta(t, options.sweeps), rng);
  }
  r.last_energy = lfs.energy();
  return r;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Runs the blocked sweep and the one-spin reference from one random start
/// on the same draws and expects the same states, the same energy bits and
/// the same next draw.
void expect_blocked_matches_reference(const ising::IsingModel& model,
                                      const Schedule& schedule,
                                      std::uint64_t seed,
                                      const std::string& where) {
  const PBitMachine machine(model);
  AnnealOptions opts;
  opts.sweeps = 80;
  util::Xoshiro256pp rng(seed);
  util::Xoshiro256pp ref_rng(seed);
  const ising::Spins start = machine.random_state(rng);
  ASSERT_EQ(start, machine.random_state(ref_rng));
  const auto got = machine.anneal_from(start, schedule, opts, rng);
  const auto want = reference_anneal(model, start, schedule, opts, ref_rng);
  EXPECT_EQ(got.last, want.last) << where;
  EXPECT_EQ(bits(got.last_energy), bits(want.last_energy)) << where;
  EXPECT_EQ(rng(), ref_rng()) << where;  // same draws consumed
}

TEST(PBitMachine, BlockedSweepMatchesOneSpinAtATimeLoop) {
  std::uint64_t seed = 100;
  for (const double density : {1.0, 0.15}) {  // dense rows and CSR rows
    // 211 and 212: the slack-extended QKP-200 sizes (tails of 3 and 0).
    for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 12u, 13u, 14u,
                                15u, 37u, 64u, 211u, 212u}) {
      const auto model = random_model(n, density, seed++);
      expect_blocked_matches_reference(
          model, Schedule::linear(4.0), seed,
          "n=" + std::to_string(n) + " density=" + std::to_string(density));
      ++seed;
    }
  }
  // Saturated visits: the unnormalized MKP Lagrangian at beta_max = 50
  // (the MKP schedule of GoldenTrajectory.PbitOnMkp30) has |beta*I| >= 8
  // on nearly every visit from the second sweep on, so most blocks are
  // decided by sign, a few lanes per sweep still fall back to the tanh
  // bracket, and the second sweep's many flips re-decide blocks in both
  // ways. Item counts chosen so the spin counts (items + slack) cover
  // every residue mod 8, hence every tail-block length.
  std::vector<bool> residues(8, false);
  for (const std::size_t items : {12u, 13u, 14u, 20u, 15u, 9u, 10u, 11u}) {
    const auto inst = problems::make_paper_mkp(items, 3, 1);
    const auto mapping = problems::mkp_to_problem(inst, false);
    const lagrange::LagrangianModel lagrangian(
        mapping.problem, lagrange::heuristic_penalty(mapping.problem, 5.0));
    const ising::IsingModel& model = lagrangian.ising();
    residues[model.n() % 8] = true;
    expect_blocked_matches_reference(
        model, Schedule::linear(50.0), seed++,
        "mkp items=" + std::to_string(items) +
            " n=" + std::to_string(model.n()));
  }
  EXPECT_EQ(residues, std::vector<bool>(8, true));
}

TEST(PBitMachine, BlockedSampleMatchesOneSpinAtATimeLoop) {
  const auto model = random_model(23, 1.0, 7);
  const PBitMachine machine(model);
  util::Xoshiro256pp rng(8);
  std::vector<ising::Spins> got;
  machine.sample(0.7, 5, 30, rng,
                 [&](const ising::Spins& m) { got.push_back(m); });

  util::Xoshiro256pp ref_rng(8);
  ising::Spins m = machine.random_state(ref_rng);
  const ising::Adjacency adj(model);
  ising::LocalFieldState lfs(model, adj);
  lfs.reset(m);
  for (std::size_t t = 0; t < 35; ++t) {
    reference_sweep(m, lfs, 0.7, ref_rng);
    if (t >= 5) {
      ASSERT_EQ(got[t - 5], m) << "sample " << t - 5;
    }
  }
  EXPECT_EQ(rng(), ref_rng());
}

}  // namespace
}  // namespace saim::pbit
