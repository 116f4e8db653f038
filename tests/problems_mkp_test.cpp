#include "problems/mkp.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/rng.hpp"

namespace saim::problems {
namespace {

MkpInstance tiny_instance() {
  // 3 items, 2 knapsacks. values 6,10,12; A = [[1,2,3],[4,2,1]]; B = [4,5].
  return MkpInstance("tiny", {6, 10, 12}, {1, 2, 3, 4, 2, 1}, {4, 5});
}

TEST(MkpInstance, ProfitAndCost) {
  const auto inst = tiny_instance();
  EXPECT_EQ(inst.profit(std::vector<std::uint8_t>{1, 1, 0}), 16);
  EXPECT_EQ(inst.cost(std::vector<std::uint8_t>{1, 1, 0}), -16);
}

TEST(MkpInstance, LoadPerKnapsack) {
  const auto inst = tiny_instance();
  const std::vector<std::uint8_t> x = {1, 0, 1};
  EXPECT_EQ(inst.load(0, x), 4);
  EXPECT_EQ(inst.load(1, x), 5);
}

TEST(MkpInstance, FeasibilityRequiresAllConstraints) {
  const auto inst = tiny_instance();
  EXPECT_TRUE(inst.feasible(std::vector<std::uint8_t>{1, 0, 1}));   // 4,5
  EXPECT_FALSE(inst.feasible(std::vector<std::uint8_t>{1, 1, 0}));  // 3,6>5
  EXPECT_FALSE(inst.feasible(std::vector<std::uint8_t>{1, 1, 1}));
  EXPECT_TRUE(inst.feasible(std::vector<std::uint8_t>{0, 0, 0}));
}

TEST(MkpInstance, WeightAccessors) {
  const auto inst = tiny_instance();
  EXPECT_EQ(inst.weight(1, 0), 4);
  EXPECT_EQ(inst.weight_row(0)[2], 3);
  EXPECT_THROW((void)inst.weight(2, 0), std::out_of_range);
  EXPECT_THROW((void)inst.weight_row(5), std::out_of_range);
}

TEST(MkpInstance, ValidationRejectsBadShapes) {
  EXPECT_THROW(MkpInstance("x", {1, 2}, {1, 2, 3}, {4}),
               std::invalid_argument);  // A not m*n
  EXPECT_THROW(MkpInstance("x", {1}, {1}, {-4}),
               std::invalid_argument);  // negative capacity
  EXPECT_THROW(MkpInstance("x", {1}, {-1}, {4}),
               std::invalid_argument);  // negative weight
}

TEST(MkpGenerator, DeterministicPerSeed) {
  MkpGeneratorParams p;
  p.n = 25;
  p.m = 4;
  p.seed = 5;
  const auto a = generate_mkp(p);
  const auto b = generate_mkp(p);
  for (std::size_t i = 0; i < p.m; ++i) {
    EXPECT_EQ(a.capacity(i), b.capacity(i));
    for (std::size_t j = 0; j < p.n; ++j) {
      EXPECT_EQ(a.weight(i, j), b.weight(i, j));
    }
  }
}

TEST(MkpGenerator, TightnessControlsCapacity) {
  MkpGeneratorParams p;
  p.n = 60;
  p.m = 3;
  p.seed = 2;
  p.tightness = 0.5;
  const auto inst = generate_mkp(p);
  for (std::size_t i = 0; i < p.m; ++i) {
    std::int64_t row_sum = 0;
    for (std::size_t j = 0; j < p.n; ++j) row_sum += inst.weight(i, j);
    EXPECT_NEAR(static_cast<double>(inst.capacity(i)),
                0.5 * static_cast<double>(row_sum),
                1.0);  // floor rounding
  }
}

TEST(MkpGenerator, ValuesCorrelateWithWeights) {
  // Chu–Beasley values = mean column weight + U[0,500]; so value minus the
  // mean column weight must lie in [0, 500].
  MkpGeneratorParams p;
  p.n = 40;
  p.m = 5;
  p.seed = 9;
  const auto inst = generate_mkp(p);
  for (std::size_t j = 0; j < p.n; ++j) {
    std::int64_t col = 0;
    for (std::size_t i = 0; i < p.m; ++i) col += inst.weight(i, j);
    const std::int64_t base = col / static_cast<std::int64_t>(p.m);
    const std::int64_t noise = inst.value(j) - base;
    EXPECT_GE(noise, 0);
    EXPECT_LE(noise, p.value_noise);
  }
}

TEST(MkpGenerator, InvalidParamsThrow) {
  MkpGeneratorParams p;
  p.n = 0;
  EXPECT_THROW(generate_mkp(p), std::invalid_argument);
  MkpGeneratorParams q;
  q.tightness = 0.0;
  EXPECT_THROW(generate_mkp(q), std::invalid_argument);
}

TEST(MakePaperMkp, NamingAndShape) {
  const auto inst = make_paper_mkp(100, 5, 8);
  EXPECT_EQ(inst.name(), "100-5-8");
  EXPECT_EQ(inst.n(), 100u);
  EXPECT_EQ(inst.m(), 5u);
}

TEST(MkpMapping, OneSlackEncodingPerKnapsack) {
  const auto inst = tiny_instance();
  const auto mapping = mkp_to_problem(inst);
  ASSERT_EQ(mapping.slack.size(), 2u);
  // Capacities 4 and 5 -> 3 slack bits each.
  EXPECT_EQ(mapping.slack[0].num_bits(), 3u);
  EXPECT_EQ(mapping.slack[1].num_bits(), 3u);
  EXPECT_EQ(mapping.problem.n(), 3u + 6u);
  EXPECT_EQ(mapping.problem.num_constraints(), 2u);
}

TEST(MkpMapping, LinearObjectiveHasNoCouplings) {
  const auto inst = tiny_instance();
  const auto mapping = mkp_to_problem(inst);
  EXPECT_EQ(mapping.problem.objective().nnz(), 0u);
  // Density falls back to the fixed-reference-spin convention 2/(N+1).
  const double n_total = static_cast<double>(mapping.problem.n());
  EXPECT_DOUBLE_EQ(mapping.problem.density_for_penalty(),
                   2.0 / (n_total + 1.0));
}

TEST(MkpMapping, SlackCompletionZeroesAllConstraints) {
  const auto inst = tiny_instance();
  const auto mapping = mkp_to_problem(inst);
  const std::vector<std::uint8_t> decision = {1, 0, 1};  // loads 4,5 = B
  std::vector<std::uint8_t> x = decision;
  for (std::size_t i = 0; i < inst.m(); ++i) {
    const std::int64_t gap = inst.capacity(i) - inst.load(i, decision);
    const auto bits = mapping.slack[i].encode(gap);
    x.insert(x.end(), bits.begin(), bits.end());
  }
  EXPECT_NEAR(mapping.problem.max_violation(x), 0.0, 1e-12);
}

TEST(MkpIo, SaveLoadRoundTrip) {
  const auto inst = make_paper_mkp(30, 4, 1);
  std::stringstream ss;
  save_mkp(ss, inst);
  const auto loaded = load_mkp(ss);
  EXPECT_EQ(loaded.name(), inst.name());
  EXPECT_EQ(loaded.n(), inst.n());
  EXPECT_EQ(loaded.m(), inst.m());
  for (std::size_t i = 0; i < inst.m(); ++i) {
    EXPECT_EQ(loaded.capacity(i), inst.capacity(i));
    for (std::size_t j = 0; j < inst.n(); ++j) {
      EXPECT_EQ(loaded.weight(i, j), inst.weight(i, j));
    }
  }
}

TEST(MkpIo, LoadRejectsGarbage) {
  std::stringstream ss("garbage");
  EXPECT_THROW(load_mkp(ss), std::runtime_error);
}

TEST(MkpMapping, CapacityShrinkTightensRows) {
  const auto inst = tiny_instance();  // capacities {4, 5}
  MkpLoweringOptions options;
  options.normalize = false;
  options.capacity_shrink = 0.6;
  const auto mapping = mkp_to_problem(inst, options);
  // B' = floor(0.6 * B): {2, 3}.
  ASSERT_EQ(mapping.effective_capacities.size(), 2u);
  EXPECT_EQ(mapping.effective_capacities[0], 2);
  EXPECT_EQ(mapping.effective_capacities[1], 3);
  EXPECT_DOUBLE_EQ(mapping.problem.constraints()[0].rhs, 2.0);
  EXPECT_DOUBLE_EQ(mapping.problem.constraints()[1].rhs, 3.0);
  // Slack encodings sized for B', not B.
  EXPECT_EQ(mapping.slack[0].num_bits(), 2u);  // bound 2 -> bits {1,2}
  EXPECT_EQ(mapping.slack[1].num_bits(), 2u);
}

TEST(MkpMapping, ShrinkOfOneIsIdentity) {
  const auto inst = tiny_instance();
  MkpLoweringOptions options;
  options.capacity_shrink = 1.0;
  const auto shrunk = mkp_to_problem(inst, options);
  const auto plain = mkp_to_problem(inst);
  EXPECT_EQ(shrunk.problem.n(), plain.problem.n());
  for (std::size_t i = 0; i < inst.m(); ++i) {
    EXPECT_DOUBLE_EQ(shrunk.problem.constraints()[i].rhs,
                     plain.problem.constraints()[i].rhs);
  }
}

TEST(MkpMapping, InvalidShrinkThrows) {
  const auto inst = tiny_instance();
  MkpLoweringOptions options;
  options.capacity_shrink = 0.0;
  EXPECT_THROW(mkp_to_problem(inst, options), std::invalid_argument);
  options.capacity_shrink = 1.5;
  EXPECT_THROW(mkp_to_problem(inst, options), std::invalid_argument);
}

TEST(MkpMapping, ShrunkEqualityImpliesTrueFeasibility) {
  // Any x satisfying the shrunken equality system (loads <= B') is a
  // fortiori feasible for the true capacities B — the basis of the
  // feasibility-boost trick.
  MkpGeneratorParams p;
  p.n = 12;
  p.m = 3;
  p.seed = 77;
  const auto inst = generate_mkp(p);
  MkpLoweringOptions options;
  options.capacity_shrink = 0.8;
  const auto mapping = mkp_to_problem(inst, options);
  util::Xoshiro256pp rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::uint8_t> decision(inst.n());
    for (auto& b : decision) b = rng.bernoulli(0.3) ? 1 : 0;
    bool fits_shrunk = true;
    for (std::size_t i = 0; i < inst.m(); ++i) {
      if (inst.load(i, decision) > mapping.effective_capacities[i]) {
        fits_shrunk = false;
      }
    }
    if (fits_shrunk) {
      EXPECT_TRUE(inst.feasible(decision));
    }
  }
}

// Property: mapped objective equals scaled raw cost and the greedy-feasible
// slack completion always zeroes every constraint.
class MkpMappingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MkpMappingProperty, MappingConsistentOnRandomSelections) {
  MkpGeneratorParams p;
  p.n = 15;
  p.m = 3;
  p.seed = GetParam();
  const auto inst = generate_mkp(p);
  const auto mapping = mkp_to_problem(inst);
  util::Xoshiro256pp rng(GetParam() + 11);

  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::uint8_t> decision(inst.n());
    for (auto& b : decision) b = rng.bernoulli(0.3) ? 1 : 0;
    if (!inst.feasible(decision)) continue;

    std::vector<std::uint8_t> x = decision;
    for (std::size_t i = 0; i < inst.m(); ++i) {
      const std::int64_t gap = inst.capacity(i) - inst.load(i, decision);
      const auto bits = mapping.slack[i].encode(gap);
      x.insert(x.end(), bits.begin(), bits.end());
    }
    EXPECT_NEAR(mapping.problem.max_violation(x), 0.0, 1e-9);
    EXPECT_NEAR(mapping.problem.objective_value(x) * mapping.objective_scale,
                static_cast<double>(inst.cost(decision)), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MkpMappingProperty,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace saim::problems
