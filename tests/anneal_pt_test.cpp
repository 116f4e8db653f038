#include "anneal/parallel_tempering.hpp"

#include <gtest/gtest.h>

namespace saim::anneal {
namespace {

ising::IsingModel spin_glass(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256pp rng(seed);
  ising::IsingModel model(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      model.add_coupling(i, j, rng.bernoulli(0.5) ? 1.0 : -1.0);
    }
  }
  return model;
}

double exact_ground_energy(const ising::IsingModel& model) {
  const std::size_t n = model.n();
  double best = 1e300;
  for (std::uint64_t code = 0; code < (1ULL << n); ++code) {
    ising::Spins m(n);
    for (std::size_t i = 0; i < n; ++i) {
      m[i] = (code >> i) & 1ULL ? std::int8_t{1} : std::int8_t{-1};
    }
    best = std::min(best, model.energy(m));
  }
  return best;
}

TEST(ParallelTempering, LadderIsGeometricAndOrdered) {
  const auto model = spin_glass(6, 1);
  PtOptions opts;
  opts.replicas = 5;
  opts.beta_min = 0.1;
  opts.beta_max = 10.0;
  ParallelTempering pt(model, opts);
  const auto ladder = pt.ladder();
  ASSERT_EQ(ladder.size(), 5u);
  EXPECT_NEAR(ladder.front(), 0.1, 1e-12);
  EXPECT_NEAR(ladder.back(), 10.0, 1e-9);
  for (std::size_t k = 1; k < ladder.size(); ++k) {
    EXPECT_GT(ladder[k], ladder[k - 1]);
    // Constant ratio between rungs.
    EXPECT_NEAR(ladder[k] / ladder[k - 1], ladder[1] / ladder[0], 1e-9);
  }
}

TEST(ParallelTempering, FindsSpinGlassGroundState) {
  const auto model = spin_glass(10, 7);
  const double exact = exact_ground_energy(model);
  PtOptions opts;
  opts.replicas = 8;
  opts.beta_min = 0.2;
  opts.beta_max = 5.0;
  opts.sweeps = 400;
  opts.swap_interval = 5;
  ParallelTempering pt(model, opts);
  util::Xoshiro256pp rng(3);
  const auto result = pt.run(rng);
  EXPECT_DOUBLE_EQ(result.last_energy, exact);
  EXPECT_NEAR(model.energy(result.last), result.last_energy, 1e-9);
}

TEST(ParallelTempering, SweepAccountingIncludesAllReplicas) {
  const auto model = spin_glass(6, 2);
  PtOptions opts;
  opts.replicas = 4;
  opts.sweeps = 50;
  ParallelTempering pt(model, opts);
  util::Xoshiro256pp rng(1);
  const auto result = pt.run(rng);
  EXPECT_EQ(result.sweeps, 200u);
}

TEST(ParallelTempering, SwapAcceptanceIsSane) {
  const auto model = spin_glass(8, 3);
  PtOptions opts;
  opts.replicas = 6;
  opts.sweeps = 200;
  opts.swap_interval = 2;
  ParallelTempering pt(model, opts);
  util::Xoshiro256pp rng(9);
  (void)pt.run(rng);
  EXPECT_GT(pt.last_swap_acceptance(), 0.0);
  EXPECT_LE(pt.last_swap_acceptance(), 1.0);
}

TEST(ParallelTempering, InvalidOptionsThrow) {
  const auto model = spin_glass(4, 4);
  PtOptions bad;
  bad.replicas = 1;
  EXPECT_THROW(ParallelTempering(model, bad), std::invalid_argument);
  PtOptions bad2;
  bad2.beta_min = -1.0;
  EXPECT_THROW(ParallelTempering(model, bad2), std::invalid_argument);
  PtOptions bad3;
  bad3.beta_min = 2.0;
  bad3.beta_max = 1.0;
  EXPECT_THROW(ParallelTempering(model, bad3), std::invalid_argument);
}

TEST(ParallelTempering, LastEnergyMatchesColdestReplicaState) {
  const auto model = spin_glass(8, 5);
  PtOptions opts;
  opts.replicas = 4;
  opts.sweeps = 100;
  ParallelTempering pt(model, opts);
  util::Xoshiro256pp rng(13);
  const auto result = pt.run(rng);
  EXPECT_NEAR(model.energy(result.last), result.last_energy, 1e-9);
}

TEST(PtBackend, RunBeforeBindThrows) {
  ParallelTemperingBackend backend(PtOptions{});
  util::Xoshiro256pp rng(1);
  EXPECT_THROW(backend.run(rng), std::logic_error);
}

TEST(PtBackend, SweepsPerRunAccountsReplicas) {
  PtOptions opts;
  opts.replicas = 26;
  opts.sweeps = 1000;
  ParallelTemperingBackend backend(opts);
  EXPECT_EQ(backend.sweeps_per_run(), 26000u);
  EXPECT_EQ(backend.name(), "parallel-tempering");
}

TEST(PtBackend, SolvesAfterBind) {
  const auto model = spin_glass(9, 11);
  const double exact = exact_ground_energy(model);
  PtOptions opts;
  opts.replicas = 6;
  opts.beta_min = 0.2;
  opts.beta_max = 5.0;
  opts.sweeps = 300;
  ParallelTemperingBackend backend(opts);
  backend.bind(model);
  util::Xoshiro256pp rng(2);
  EXPECT_DOUBLE_EQ(backend.run(rng).last_energy, exact);
}

}  // namespace
}  // namespace saim::anneal
