#include "ising/convert.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace saim::ising {
namespace {

QuboModel random_qubo(util::Xoshiro256pp& rng, std::size_t n) {
  QuboModel q(n);
  for (std::size_t i = 0; i < n; ++i) {
    q.add_linear(i, rng.uniform_sym() * 4.0);
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(0.7)) {
        q.add_quadratic(i, j, rng.uniform_sym() * 4.0);
      }
    }
  }
  q.add_offset(rng.uniform_sym() * 2.0);
  return q;
}

Bits bits_from_code(std::uint64_t code, std::size_t n) {
  Bits x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<std::uint8_t>((code >> i) & 1ULL);
  }
  return x;
}

TEST(BitsSpins, RoundTrip) {
  const Bits x = {1, 0, 0, 1, 1};
  const Spins m = bits_to_spins(x);
  EXPECT_EQ(m, (Spins{1, -1, -1, 1, 1}));
  EXPECT_EQ(spins_to_bits(m), x);
}

// Exhaustive check on every configuration: the Ising image preserves energy.
class ConvertExhaustive : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConvertExhaustive, QuboToIsingPreservesEnergy) {
  util::Xoshiro256pp rng(GetParam());
  const std::size_t n = 2 + rng.below(7);  // up to 8 variables -> 256 states
  const QuboModel q = random_qubo(rng, n);
  const IsingModel ising = qubo_to_ising(q);
  for (std::uint64_t code = 0; code < (1ULL << n); ++code) {
    const Bits x = bits_from_code(code, n);
    const Spins m = bits_to_spins(x);
    ASSERT_NEAR(q.energy(x), ising.energy(m), 1e-9) << "code=" << code;
  }
}

TEST_P(ConvertExhaustive, IsingToQuboPreservesEnergy) {
  util::Xoshiro256pp rng(GetParam() + 5000);
  const std::size_t n = 2 + rng.below(7);
  IsingModel ising(n);
  for (std::size_t i = 0; i < n; ++i) {
    ising.add_field(i, rng.uniform_sym() * 3.0);
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(0.6)) {
        ising.add_coupling(i, j, rng.uniform_sym() * 3.0);
      }
    }
  }
  ising.add_offset(rng.uniform_sym());
  const QuboModel q = ising_to_qubo(ising);
  for (std::uint64_t code = 0; code < (1ULL << n); ++code) {
    const Bits x = bits_from_code(code, n);
    const Spins m = bits_to_spins(x);
    ASSERT_NEAR(ising.energy(m), q.energy(x), 1e-9);
  }
}

TEST_P(ConvertExhaustive, RoundTripIsIdentityOnEnergies) {
  util::Xoshiro256pp rng(GetParam() + 9000);
  const std::size_t n = 2 + rng.below(6);
  const QuboModel q = random_qubo(rng, n);
  const QuboModel q2 = ising_to_qubo(qubo_to_ising(q));
  for (std::uint64_t code = 0; code < (1ULL << n); ++code) {
    const Bits x = bits_from_code(code, n);
    ASSERT_NEAR(q.energy(x), q2.energy(x), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomModels, ConvertExhaustive,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace saim::ising
