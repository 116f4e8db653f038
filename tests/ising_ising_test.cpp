#include "ising/ising_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "nondyadic_models.hpp"
#include "util/rng.hpp"

namespace saim::ising {
namespace {

TEST(IsingModel, TwoSpinFerromagnet) {
  // H = -J m0 m1 with J=1: aligned states have energy -1.
  IsingModel ising(2);
  ising.add_coupling(0, 1, 1.0);
  EXPECT_DOUBLE_EQ(ising.energy(Spins{1, 1}), -1.0);
  EXPECT_DOUBLE_EQ(ising.energy(Spins{-1, -1}), -1.0);
  EXPECT_DOUBLE_EQ(ising.energy(Spins{1, -1}), 1.0);
}

TEST(IsingModel, FieldTerm) {
  IsingModel ising(1);
  ising.add_field(0, 2.0);
  EXPECT_DOUBLE_EQ(ising.energy(Spins{1}), -2.0);
  EXPECT_DOUBLE_EQ(ising.energy(Spins{-1}), 2.0);
}

TEST(IsingModel, OffsetShiftsEnergy) {
  IsingModel ising(1);
  ising.add_offset(3.0);
  EXPECT_DOUBLE_EQ(ising.energy(Spins{1}), 3.0);
}

TEST(IsingModel, DiagonalCouplingIsConstant) {
  // m_i^2 == 1, so -J_ii m_i m_i = -J_ii for every state.
  IsingModel ising(2);
  ising.add_coupling(0, 0, 2.0);
  EXPECT_DOUBLE_EQ(ising.energy(Spins{1, 1}), -2.0);
  EXPECT_DOUBLE_EQ(ising.energy(Spins{-1, 1}), -2.0);
}

TEST(IsingModel, CouplingSymmetricAccumulation) {
  IsingModel ising(3);
  ising.add_coupling(0, 2, 1.0);
  ising.add_coupling(2, 0, 0.5);
  EXPECT_DOUBLE_EQ(ising.coupling(0, 2), 1.5);
  EXPECT_DOUBLE_EQ(ising.coupling(2, 0), 1.5);
}

TEST(IsingModel, InputMatchesEquationNine) {
  // I_i = sum_j J_ij m_j + h_i.
  IsingModel ising(3);
  ising.add_coupling(0, 1, 2.0);
  ising.add_coupling(0, 2, -1.0);
  ising.add_field(0, 0.5);
  const Spins m = {1, 1, -1};
  EXPECT_DOUBLE_EQ(ising.input(m, 0), 2.0 * 1 + (-1.0) * (-1) + 0.5);
}

TEST(IsingModel, SetFieldOverwrites) {
  IsingModel ising(2);
  ising.add_field(0, 1.0);
  ising.set_field(0, -4.0);
  EXPECT_DOUBLE_EQ(ising.field(0), -4.0);
}

TEST(IsingModel, OutOfRangeThrows) {
  IsingModel ising(2);
  EXPECT_THROW(ising.add_coupling(0, 2, 1.0), std::out_of_range);
  EXPECT_THROW(ising.add_field(5, 1.0), std::out_of_range);
  EXPECT_THROW((void)ising.field(2), std::out_of_range);
  EXPECT_THROW((void)ising.coupling(0, 3), std::out_of_range);
}

TEST(IsingModel, NnzCountsUpperTriangle) {
  IsingModel ising(4);
  ising.add_coupling(0, 1, 1.0);
  ising.add_coupling(1, 3, 1.0);
  EXPECT_EQ(ising.nnz(), 2u);
}

// Property sweep: dH of a flip equals 2 m_i I_i and matches recomputation.
class IsingFlipDelta : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IsingFlipDelta, MatchesFullRecomputation) {
  util::Xoshiro256pp rng(GetParam());
  const std::size_t n = 2 + rng.below(14);
  IsingModel ising(n);
  for (std::size_t i = 0; i < n; ++i) {
    ising.add_field(i, rng.uniform_sym() * 3.0);
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(0.5)) {
        ising.add_coupling(i, j, rng.uniform_sym() * 3.0);
      }
    }
  }
  Spins m(n);
  for (auto& s : m) s = rng.bernoulli(0.5) ? 1 : -1;

  for (std::size_t i = 0; i < n; ++i) {
    const double base = ising.energy(m);
    const double predicted = ising.flip_delta(m, i);
    Spins w = m;
    w[i] = static_cast<std::int8_t>(-w[i]);
    EXPECT_NEAR(ising.energy(w) - base, predicted, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomModels, IsingFlipDelta,
                         ::testing::Range<std::uint64_t>(100, 120));

/// The row-by-row energy loop: acc_i = sum_{j>i} J_ij m_j in ascending j,
/// folded into e in ascending i. IsingModel::energy must match it bit for
/// bit.
double row_sequential_energy(const IsingModel& model, const Spins& m) {
  double e = model.offset();
  for (std::size_t i = 0; i < model.n(); ++i) {
    const auto mi = static_cast<double>(m[i]);
    e -= model.fields()[i] * mi;
    const auto r = model.row(i);
    double acc = 0.0;
    for (std::size_t j = i + 1; j < model.n(); ++j) {
      acc += r[j] * static_cast<double>(m[j]);
    }
    e -= mi * acc;
  }
  return e;
}

void expect_energy_matches_row_sequential(const IsingModel& model,
                                          std::uint64_t seed) {
  util::Xoshiro256pp rng(seed);
  for (int state = 0; state < 12; ++state) {
    Spins m = testing_models::random_spins(model.n(), rng);
    if (state < 2) m.assign(model.n(), state == 0 ? 1 : -1);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(model.energy(m)),
              std::bit_cast<std::uint64_t>(row_sequential_energy(model, m)))
        << "n=" << model.n() << " state " << state;
  }
}

TEST(IsingModel, EnergyMatchesRowSequentialLoopOnRealModels) {
  std::uint64_t seed = 200;
  for (const std::size_t n : testing_models::pin_sizes()) {
    for (const double fill : {0.2, 0.5, 1.0}) {
      SCOPED_TRACE(fill);
      expect_energy_matches_row_sequential(
          testing_models::random_real_model(n, fill, seed), seed + 1);
      seed += 2;
    }
    expect_energy_matches_row_sequential(
        testing_models::mixed_rows_model(n, seed), seed + 1);
    seed += 2;
  }
}

TEST(IsingModel, EnergyMatchesRowSequentialLoopOnQkpLagrangians) {
  for (const auto& [items, density] :
       {std::pair{22, 50}, std::pair{50, 25}, std::pair{200, 25}}) {
    expect_energy_matches_row_sequential(
        testing_models::qkp_lagrangian(static_cast<std::size_t>(items),
                                       density, 1),
        300 + static_cast<std::uint64_t>(items));
  }
}

}  // namespace
}  // namespace saim::ising
