#include "problems/qkp.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "util/rng.hpp"

namespace saim::problems {
namespace {

QkpInstance tiny_instance() {
  // 3 items: values 10,20,30; pair value W(0,1)=5; weights 2,3,4; cap 5.
  std::vector<std::int64_t> w(9, 0);
  w[0 * 3 + 1] = 5;
  w[1 * 3 + 0] = 5;
  return QkpInstance("tiny", {10, 20, 30}, w, {2, 3, 4}, 5);
}

TEST(QkpInstance, ProfitCountsPairsOnce) {
  const auto inst = tiny_instance();
  EXPECT_EQ(inst.profit(std::vector<std::uint8_t>{1, 1, 0}), 10 + 20 + 5);
  EXPECT_EQ(inst.profit(std::vector<std::uint8_t>{1, 0, 1}), 10 + 30);
  EXPECT_EQ(inst.profit(std::vector<std::uint8_t>{0, 0, 0}), 0);
}

TEST(QkpInstance, CostIsNegatedProfit) {
  const auto inst = tiny_instance();
  EXPECT_EQ(inst.cost(std::vector<std::uint8_t>{1, 1, 0}), -35);
}

TEST(QkpInstance, FeasibilityIsCapacityCheck) {
  const auto inst = tiny_instance();
  EXPECT_TRUE(inst.feasible(std::vector<std::uint8_t>{1, 1, 0}));   // w=5
  EXPECT_FALSE(inst.feasible(std::vector<std::uint8_t>{0, 1, 1}));  // w=7
  EXPECT_TRUE(inst.feasible(std::vector<std::uint8_t>{0, 0, 0}));   // w=0
}

TEST(QkpInstance, DensityMatchesNnz) {
  const auto inst = tiny_instance();
  EXPECT_DOUBLE_EQ(inst.density(), 1.0 / 3.0);  // one pair of three
}

TEST(QkpInstance, MaxObjectiveCoefficient) {
  const auto inst = tiny_instance();
  EXPECT_EQ(inst.max_objective_coefficient(), 30);
}

TEST(QkpInstance, ValidationRejectsBadShapes) {
  EXPECT_THROW(QkpInstance("x", {1, 2}, {0, 0, 0}, {1, 2}, 3),
               std::invalid_argument);  // W not n*n
  EXPECT_THROW(QkpInstance("x", {1}, {0}, {1, 2}, 3),
               std::invalid_argument);  // weights wrong length
  EXPECT_THROW(QkpInstance("x", {1}, {0}, {1}, -1),
               std::invalid_argument);  // negative capacity
  EXPECT_THROW(QkpInstance("x", {1, 2}, {0, 1, 2, 0}, {1, 1}, 3),
               std::invalid_argument);  // asymmetric W
  EXPECT_THROW(QkpInstance("x", {1, 2}, {1, 0, 0, 0}, {1, 1}, 3),
               std::invalid_argument);  // nonzero diagonal
}

TEST(QkpGenerator, DeterministicPerSeed) {
  QkpGeneratorParams p;
  p.n = 30;
  p.density = 0.5;
  p.seed = 99;
  const auto a = generate_qkp(p);
  const auto b = generate_qkp(p);
  EXPECT_EQ(a.capacity(), b.capacity());
  for (std::size_t i = 0; i < a.n(); ++i) {
    EXPECT_EQ(a.value(i), b.value(i));
    EXPECT_EQ(a.weight(i), b.weight(i));
  }
}

TEST(QkpGenerator, RespectsCoefficientRanges) {
  QkpGeneratorParams p;
  p.n = 50;
  p.density = 0.5;
  p.seed = 7;
  const auto inst = generate_qkp(p);
  std::int64_t weight_sum = 0;
  for (std::size_t i = 0; i < inst.n(); ++i) {
    EXPECT_GE(inst.value(i), 1);
    EXPECT_LE(inst.value(i), p.max_value);
    EXPECT_GE(inst.weight(i), 1);
    EXPECT_LE(inst.weight(i), p.max_weight);
    weight_sum += inst.weight(i);
    for (std::size_t j = i + 1; j < inst.n(); ++j) {
      EXPECT_GE(inst.pair_value(i, j), 0);
      EXPECT_LE(inst.pair_value(i, j), p.max_value);
    }
  }
  EXPECT_GE(inst.capacity(), p.min_capacity);
  EXPECT_LE(inst.capacity(), weight_sum);
}

TEST(QkpGenerator, DensityIsApproximatelyRequested) {
  QkpGeneratorParams p;
  p.n = 120;
  p.density = 0.25;
  p.seed = 3;
  const auto inst = generate_qkp(p);
  EXPECT_NEAR(inst.density(), 0.25, 0.04);
}

TEST(QkpGenerator, InvalidParamsThrow) {
  QkpGeneratorParams p;
  p.n = 0;
  EXPECT_THROW(generate_qkp(p), std::invalid_argument);
  QkpGeneratorParams q;
  q.density = 1.5;
  EXPECT_THROW(generate_qkp(q), std::invalid_argument);
}

TEST(MakePaperQkp, NamingAndDeterminism) {
  const auto a = make_paper_qkp(100, 25, 3);
  EXPECT_EQ(a.name(), "100-25-3");
  EXPECT_EQ(a.n(), 100u);
  const auto b = make_paper_qkp(100, 25, 3);
  EXPECT_EQ(a.capacity(), b.capacity());
  const auto c = make_paper_qkp(100, 25, 4);
  // Different index must give a different instance (capacity collision is
  // possible but weights differing somewhere is near-certain).
  bool identical = a.capacity() == c.capacity();
  for (std::size_t i = 0; identical && i < a.n(); ++i) {
    identical = a.weight(i) == c.weight(i) && a.value(i) == c.value(i);
  }
  EXPECT_FALSE(identical);
}

TEST(QkpMapping, VariableCountIncludesSlack) {
  const auto inst = tiny_instance();  // capacity 5 -> Q = 3 slack bits
  const auto mapping = qkp_to_problem(inst);
  EXPECT_EQ(mapping.slack.num_bits(), 3u);
  EXPECT_EQ(mapping.problem.n(), 6u);
  EXPECT_EQ(mapping.problem.num_decision(), 3u);
  EXPECT_EQ(mapping.problem.num_constraints(), 1u);
}

TEST(QkpMapping, ObjectiveMatchesScaledCost) {
  const auto inst = tiny_instance();
  const auto mapping = qkp_to_problem(inst);
  // Decision bits {1,1,0} + any slack: objective only involves decisions.
  const std::vector<std::uint8_t> x = {1, 1, 0, 0, 1, 0};
  const double expected =
      static_cast<double>(inst.cost(std::vector<std::uint8_t>{1, 1, 0})) /
      mapping.objective_scale;
  EXPECT_NEAR(mapping.problem.objective_value(x), expected, 1e-12);
}

TEST(QkpMapping, ConstraintZeroIffSlackCompletesCapacity) {
  const auto inst = tiny_instance();
  const auto mapping = qkp_to_problem(inst);
  // Items {0,1}: weight 5 == capacity -> slack must be 0.
  std::vector<std::uint8_t> x = {1, 1, 0, 0, 0, 0};
  EXPECT_NEAR(mapping.problem.max_violation(x), 0.0, 1e-12);
  // Item {0}: weight 2, slack must encode 3 = b11.
  x = {1, 0, 0, 1, 1, 0};
  EXPECT_NEAR(mapping.problem.max_violation(x), 0.0, 1e-12);
  // Wrong slack leaves a violation.
  x = {1, 0, 0, 0, 0, 0};
  EXPECT_GT(mapping.problem.max_violation(x), 0.0);
}

TEST(QkpMapping, RowWiseObjectiveMatchesPairwiseBuildBitForBit) {
  // The objective written from W's rows against the pair-by-pair
  // add_quadratic build it replaced, memcmp'd so -0.0 would count.
  const auto inst = make_paper_qkp(60, 50, 1);
  for (const bool normalize : {true, false}) {
    const auto mapping = qkp_to_problem(inst, normalize);
    const auto& got = mapping.problem.objective();
    ising::QuboModel want(got.n());
    for (std::size_t i = 0; i < inst.n(); ++i) {
      if (inst.value(i) != 0) {
        want.add_linear(i, -static_cast<double>(inst.value(i)) /
                               mapping.objective_scale);
      }
      for (std::size_t j = i + 1; j < inst.n(); ++j) {
        const std::int64_t w = inst.pair_value(i, j);
        if (w != 0) {
          want.add_quadratic(i, j,
                             -static_cast<double>(w) / mapping.objective_scale);
        }
      }
    }
    for (std::size_t i = 0; i < got.n(); ++i) {
      ASSERT_EQ(std::memcmp(got.row(i).data(), want.row(i).data(),
                            got.n() * sizeof(double)),
                0)
          << "row " << i;
    }
    ASSERT_EQ(std::memcmp(got.linear_terms().data(),
                          want.linear_terms().data(), got.n() * sizeof(double)),
              0);
    EXPECT_EQ(got.offset(), 0.0);
  }
}

TEST(QkpMapping, NormalizationBoundsCoefficients) {
  const auto inst = make_paper_qkp(40, 50, 1);
  const auto mapping = qkp_to_problem(inst);
  EXPECT_LE(mapping.problem.objective().max_abs_coefficient(), 1.0 + 1e-12);
  for (const auto& row : mapping.problem.constraints()) {
    for (const auto& [idx, coeff] : row.terms) {
      (void)idx;
      EXPECT_LE(std::abs(coeff), 1.0 + 1e-12);
    }
    EXPECT_LE(std::abs(row.rhs), 1.0 + 1e-12);
  }
}

TEST(QkpMapping, UnnormalizedKeepsRawCoefficients) {
  const auto inst = tiny_instance();
  const auto mapping = qkp_to_problem(inst, /*normalize=*/false);
  EXPECT_DOUBLE_EQ(mapping.objective_scale, 1.0);
  EXPECT_DOUBLE_EQ(mapping.constraint_scale, 1.0);
  EXPECT_DOUBLE_EQ(mapping.problem.objective().linear(2), -30.0);
}

TEST(QkpIo, SaveLoadRoundTrip) {
  const auto inst = make_paper_qkp(20, 50, 2);
  std::stringstream ss;
  save_qkp(ss, inst);
  const auto loaded = load_qkp(ss);
  EXPECT_EQ(loaded.name(), inst.name());
  EXPECT_EQ(loaded.n(), inst.n());
  EXPECT_EQ(loaded.capacity(), inst.capacity());
  for (std::size_t i = 0; i < inst.n(); ++i) {
    EXPECT_EQ(loaded.value(i), inst.value(i));
    EXPECT_EQ(loaded.weight(i), inst.weight(i));
    for (std::size_t j = 0; j < inst.n(); ++j) {
      EXPECT_EQ(loaded.pair_value(i, j), inst.pair_value(i, j));
    }
  }
}

TEST(QkpIo, LoadRejectsGarbage) {
  std::stringstream ss("not a valid file");
  EXPECT_THROW(load_qkp(ss), std::runtime_error);
}

// Property: for random instances, every feasible configuration has
// objective == -profit/scale and zero violation with the right slack.
class QkpMappingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QkpMappingProperty, SlackCompletionZeroesConstraint) {
  QkpGeneratorParams p;
  p.n = 12;
  p.density = 0.5;
  p.seed = GetParam();
  const auto inst = generate_qkp(p);
  const auto mapping = qkp_to_problem(inst);
  util::Xoshiro256pp rng(GetParam() + 1);

  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::uint8_t> decision(inst.n());
    for (auto& b : decision) b = rng.bernoulli(0.4) ? 1 : 0;
    if (!inst.feasible(decision)) continue;

    const std::int64_t gap = inst.capacity() - inst.total_weight(decision);
    const auto slack_bits = mapping.slack.encode(gap);
    std::vector<std::uint8_t> x = decision;
    x.insert(x.end(), slack_bits.begin(), slack_bits.end());

    EXPECT_NEAR(mapping.problem.max_violation(x), 0.0, 1e-9);
    EXPECT_NEAR(mapping.problem.objective_value(x) * mapping.objective_scale,
                static_cast<double>(inst.cost(decision)), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, QkpMappingProperty,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace saim::problems
