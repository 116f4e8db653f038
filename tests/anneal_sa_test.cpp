#include "anneal/simulated_annealing.hpp"

#include <gtest/gtest.h>

#include "anneal/backend.hpp"

namespace saim::anneal {
namespace {

ising::IsingModel ferromagnet(std::size_t n) {
  ising::IsingModel model(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      model.add_coupling(i, j, 1.0);
    }
  }
  return model;
}

TEST(MetropolisSa, FindsFerromagnetGroundState) {
  const auto model = ferromagnet(12);
  MetropolisSa sa(model);
  util::Xoshiro256pp rng(1);
  SaOptions opts;
  opts.sweeps = 300;
  const auto result = sa.run(pbit::Schedule::linear(5.0), opts, rng);
  EXPECT_DOUBLE_EQ(result.last_energy, -66.0);
}

TEST(MetropolisSa, EnergyBookkeepingConsistent) {
  ising::IsingModel model(9);
  model.add_coupling(0, 3, -1.2);
  model.add_coupling(4, 7, 0.9);
  model.add_field(2, 0.4);
  model.add_offset(-2.0);
  MetropolisSa sa(model);
  util::Xoshiro256pp rng(5);
  SaOptions opts;
  opts.sweeps = 80;
  const auto result = sa.run(pbit::Schedule::linear(3.0), opts, rng);
  EXPECT_NEAR(result.last_energy, model.energy(result.last), 1e-9);
}

TEST(MetropolisSa, RunFromKeepsGroundStateAtHighBeta) {
  const auto model = ferromagnet(8);
  MetropolisSa sa(model);
  util::Xoshiro256pp rng(3);
  ising::Spins ground(8, std::int8_t{1});
  SaOptions opts;
  opts.sweeps = 40;
  const auto result =
      sa.run_from(ground, pbit::Schedule::constant(50.0), opts, rng);
  EXPECT_DOUBLE_EQ(result.last_energy, -28.0);
}

TEST(MetropolisSa, DeterministicPerSeed) {
  const auto model = ferromagnet(10);
  MetropolisSa sa(model);
  SaOptions opts;
  opts.sweeps = 60;
  util::Xoshiro256pp a(9);
  util::Xoshiro256pp b(9);
  const auto ra = sa.run(pbit::Schedule::linear(2.0), opts, a);
  const auto rb = sa.run(pbit::Schedule::linear(2.0), opts, b);
  EXPECT_EQ(ra.last, rb.last);
}

TEST(SaBackend, RunBeforeBindThrows) {
  MetropolisSaBackend backend(pbit::Schedule::linear(5.0), 100);
  util::Xoshiro256pp rng(1);
  EXPECT_THROW(backend.run(rng), std::logic_error);
}

TEST(SaBackend, SolvesAfterBind) {
  const auto model = ferromagnet(10);
  MetropolisSaBackend backend(pbit::Schedule::linear(5.0), 200);
  backend.bind(model);
  util::Xoshiro256pp rng(2);
  const auto result = backend.run(rng);
  EXPECT_DOUBLE_EQ(result.last_energy, -45.0);
  EXPECT_EQ(backend.sweeps_per_run(), 200u);
  EXPECT_EQ(backend.name(), "metropolis-sa");
}

TEST(PBitBackendAdapter, RunBeforeBindThrows) {
  PBitBackend backend(pbit::Schedule::linear(5.0), 100);
  util::Xoshiro256pp rng(1);
  EXPECT_THROW(backend.run(rng), std::logic_error);
}

TEST(PBitBackendAdapter, SolvesAfterBind) {
  const auto model = ferromagnet(10);
  PBitBackend backend(pbit::Schedule::linear(5.0), 300);
  backend.bind(model);
  util::Xoshiro256pp rng(4);
  const auto result = backend.run(rng);
  EXPECT_DOUBLE_EQ(result.last_energy, -45.0);
  EXPECT_EQ(backend.sweeps_per_run(), 300u);
  EXPECT_EQ(backend.name(), "pbit");
  EXPECT_EQ(result.sweeps, 300u);
}

TEST(PBitBackendAdapter, SeesLiveFieldUpdates) {
  // The backend reads the bound model's fields at run time: flipping the
  // field sign must flip the preferred spin without a rebind.
  ising::IsingModel model(1);
  model.add_field(0, 4.0);
  PBitBackend backend(pbit::Schedule::linear(10.0), 50);
  backend.bind(model);
  util::Xoshiro256pp rng(6);
  EXPECT_EQ(backend.run(rng).last[0], 1);

  model.set_field(0, -4.0);
  backend.fields_updated();
  EXPECT_EQ(backend.run(rng).last[0], -1);
}

}  // namespace
}  // namespace saim::anneal
