#include "lagrange/lagrangian_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "ising/convert.hpp"
#include "problems/mkp.hpp"
#include "problems/portfolio.hpp"
#include "problems/qkp.hpp"
#include "util/rng.hpp"

namespace saim::lagrange {
namespace {

using problems::ConstrainedProblem;
using problems::LinearConstraint;

ConstrainedProblem toy_problem() {
  // min -x0 - 2 x1  s.t.  x0 + x1 = 1  over 2 binaries.
  ising::QuboModel f(2);
  f.add_linear(0, -1.0);
  f.add_linear(1, -2.0);
  LinearConstraint g;
  g.terms = {{0, 1.0}, {1, 1.0}};
  g.rhs = 1.0;
  return ConstrainedProblem(std::move(f), {g}, 2);
}

TEST(LagrangianModel, PenaltyExpansionMatchesDirectEvaluation) {
  const auto problem = toy_problem();
  LagrangianModel model(problem, 3.0);
  for (std::uint64_t code = 0; code < 4; ++code) {
    const std::vector<std::uint8_t> x = {
        static_cast<std::uint8_t>(code & 1),
        static_cast<std::uint8_t>((code >> 1) & 1)};
    const double g = static_cast<double>(x[0]) + x[1] - 1.0;
    const double expected = -1.0 * x[0] - 2.0 * x[1] + 3.0 * g * g;
    EXPECT_NEAR(model.ising().energy(ising::bits_to_spins(x)), expected,
                1e-12)
        << "code=" << code;
    EXPECT_NEAR(model.lagrangian(x), expected, 1e-12);
  }
}

TEST(LagrangianModel, LambdaTermAddsLinearly) {
  const auto problem = toy_problem();
  LagrangianModel model(problem, 3.0);
  const std::vector<double> lambda = {2.5};
  model.set_lambda(lambda);
  for (std::uint64_t code = 0; code < 4; ++code) {
    const std::vector<std::uint8_t> x = {
        static_cast<std::uint8_t>(code & 1),
        static_cast<std::uint8_t>((code >> 1) & 1)};
    const double g = static_cast<double>(x[0]) + x[1] - 1.0;
    const double expected =
        -1.0 * x[0] - 2.0 * x[1] + 3.0 * g * g + 2.5 * g;
    EXPECT_NEAR(model.ising().energy(ising::bits_to_spins(x)), expected,
                1e-12);
    EXPECT_NEAR(model.lagrangian(x), expected, 1e-12);
  }
}

TEST(LagrangianModel, IsingImageMatchesLagrangian) {
  const auto problem = toy_problem();
  LagrangianModel model(problem, 2.0);
  model.set_lambda(std::vector<double>{-1.5});
  for (std::uint64_t code = 0; code < 4; ++code) {
    const std::vector<std::uint8_t> x = {
        static_cast<std::uint8_t>(code & 1),
        static_cast<std::uint8_t>((code >> 1) & 1)};
    EXPECT_NEAR(model.ising().energy(ising::bits_to_spins(x)),
                model.lagrangian(x), 1e-12);
  }
}

TEST(LagrangianModel, SetLambdaNeverTouchesCouplings) {
  const auto inst = problems::make_paper_qkp(20, 50, 1);
  const auto mapping = problems::qkp_to_problem(inst);
  LagrangianModel model(mapping.problem, 1.0);

  const std::size_t n = model.n();
  std::vector<double> couplings_before;
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = model.ising().row(i);
    couplings_before.insert(couplings_before.end(), row.begin(), row.end());
  }
  model.set_lambda(std::vector<double>{42.0});
  std::size_t idx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = model.ising().row(i);
    for (const double v : row) {
      ASSERT_EQ(v, couplings_before[idx++]);
    }
  }
}

TEST(LagrangianModel, SetLambdaMatchesFreshRebuild) {
  // The incremental field refresh must be bit-equivalent (within fp
  // tolerance) to building a brand-new model with the lambda term folded in.
  const auto inst = problems::make_paper_qkp(15, 50, 2);
  const auto mapping = problems::qkp_to_problem(inst);
  LagrangianModel incremental(mapping.problem, 1.5);
  const std::vector<double> lambda = {0.7};
  incremental.set_lambda(lambda);

  // Fresh model: same problem but with lambda*g folded into the objective.
  ising::QuboModel f2(mapping.problem.n());
  mapping.problem.objective().for_each_quadratic(
      [&](std::size_t i, std::size_t j, double q) {
        f2.add_quadratic(i, j, q);
      });
  for (std::size_t i = 0; i < mapping.problem.n(); ++i) {
    f2.add_linear(i, mapping.problem.objective().linear(i));
  }
  f2.set_offset(mapping.problem.objective().offset());
  for (const auto& [j, aj] : mapping.problem.constraints()[0].terms) {
    f2.add_linear(j, lambda[0] * aj);
  }
  f2.add_offset(-lambda[0] * mapping.problem.constraints()[0].rhs);
  ConstrainedProblem folded(std::move(f2), mapping.problem.constraints(),
                            mapping.problem.num_decision());
  LagrangianModel fresh(folded, 1.5);

  util::Xoshiro256pp rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> x(mapping.problem.n());
    for (auto& b : x) b = rng.bernoulli(0.5) ? 1 : 0;
    ASSERT_NEAR(incremental.lagrangian(x), fresh.lagrangian(x), 1e-9);
    ASSERT_NEAR(incremental.ising().energy(ising::bits_to_spins(x)),
                fresh.ising().energy(ising::bits_to_spins(x)), 1e-9);
  }
}

TEST(LagrangianModel, MultipleConstraints) {
  // Two constraints with distinct multipliers.
  ising::QuboModel f(3);
  f.add_linear(0, -1.0);
  LinearConstraint g1;
  g1.terms = {{0, 1.0}, {1, 1.0}};
  g1.rhs = 1.0;
  LinearConstraint g2;
  g2.terms = {{1, 2.0}, {2, 1.0}};
  g2.rhs = 2.0;
  ConstrainedProblem problem(std::move(f), {g1, g2}, 3);
  LagrangianModel model(problem, 0.5);
  model.set_lambda(std::vector<double>{1.0, -2.0});

  for (std::uint64_t code = 0; code < 8; ++code) {
    std::vector<std::uint8_t> x(3);
    for (std::size_t i = 0; i < 3; ++i) {
      x[i] = static_cast<std::uint8_t>((code >> i) & 1ULL);
    }
    const double ga = static_cast<double>(x[0]) + x[1] - 1.0;
    const double gb = 2.0 * x[1] + x[2] - 2.0;
    const double expected =
        -1.0 * x[0] + 0.5 * (ga * ga + gb * gb) + 1.0 * ga - 2.0 * gb;
    EXPECT_NEAR(model.ising().energy(ising::bits_to_spins(x)), expected,
                1e-12);
  }
}

TEST(LagrangianModel, SetLambdaSizeMismatchThrows) {
  const auto problem = toy_problem();
  LagrangianModel model(problem, 1.0);
  EXPECT_THROW(model.set_lambda(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(LagrangianModel, NegativePenaltyThrows) {
  const auto problem = toy_problem();
  EXPECT_THROW(LagrangianModel(problem, -1.0), std::invalid_argument);
}

TEST(HeuristicPenalty, QkpFormulaMatchesPaper) {
  // P = alpha d N with d the coupling density and N incl. slack.
  const auto inst = problems::make_paper_qkp(50, 50, 1);
  const auto mapping = problems::qkp_to_problem(inst);
  const double d = mapping.problem.objective().density();
  const double n = static_cast<double>(mapping.problem.n());
  EXPECT_NEAR(heuristic_penalty(mapping.problem, 2.0), 2.0 * d * n, 1e-12);
}

TEST(HeuristicPenalty, DensityIsTheObjectivesDensityBitForBit) {
  // density_for_penalty counts the objective's nonzeros once and divides
  // as QuboModel::density does.
  for (const int density : {25, 50, 75, 100}) {
    const auto inst = problems::make_paper_qkp(40, density, 2);
    const auto mapping = problems::qkp_to_problem(inst);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  mapping.problem.density_for_penalty()),
              std::bit_cast<std::uint64_t>(
                  mapping.problem.objective().density()))
        << "density " << density;
  }
}

TEST(HeuristicPenalty, LinearObjectiveUsesFixedSpinConvention) {
  ising::QuboModel f(9);
  f.add_linear(0, -1.0);
  ConstrainedProblem problem(std::move(f), {}, 9);
  // d = 2/(N+1) = 0.2 for N=9; P = 5 * 0.2 * 9 = 9.
  EXPECT_NEAR(heuristic_penalty(problem, 5.0), 9.0, 1e-12);
}

// Property sweep: Ising image equals direct Lagrangian for random lambda on
// random QKP mappings.
class LagrangianProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LagrangianProperty, IsingImageEqualsDirectForm) {
  problems::QkpGeneratorParams p;
  p.n = 10;
  p.density = 0.5;
  p.seed = GetParam();
  const auto inst = problems::generate_qkp(p);
  const auto mapping = problems::qkp_to_problem(inst);
  LagrangianModel model(mapping.problem, 0.8);

  util::Xoshiro256pp rng(GetParam() + 77);
  for (int round = 0; round < 5; ++round) {
    const std::vector<double> lambda = {rng.uniform_sym() * 10.0};
    model.set_lambda(lambda);
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::uint8_t> x(mapping.problem.n());
      for (auto& b : x) b = rng.bernoulli(0.5) ? 1 : 0;
      ASSERT_NEAR(model.ising().energy(ising::bits_to_spins(x)),
                  model.lagrangian(x), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LagrangianProperty,
                         ::testing::Range<std::uint64_t>(0, 8));

// Same property on multi-constraint MKP mappings: the incremental lambda
// refresh must stay consistent when several constraints move at once.
class LagrangianMkpProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(LagrangianMkpProperty, IsingImageEqualsDirectForm) {
  problems::MkpGeneratorParams p;
  p.n = 12;
  p.m = 4;
  p.seed = GetParam();
  const auto inst = problems::generate_mkp(p);
  const auto mapping = problems::mkp_to_problem(inst);
  LagrangianModel model(mapping.problem, 5.0);

  util::Xoshiro256pp rng(GetParam() + 321);
  std::vector<double> lambda(mapping.problem.num_constraints());
  for (int round = 0; round < 4; ++round) {
    for (auto& l : lambda) l = rng.uniform_sym() * 8.0;
    model.set_lambda(lambda);
    for (int trial = 0; trial < 15; ++trial) {
      std::vector<std::uint8_t> x(mapping.problem.n());
      for (auto& b : x) b = rng.bernoulli(0.5) ? 1 : 0;
      ASSERT_NEAR(model.ising().energy(ising::bits_to_spins(x)),
                  model.lagrangian(x), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LagrangianMkpProperty,
                         ::testing::Range<std::uint64_t>(0, 6));

// And on the real-valued quadratic portfolio mapping, which exercises
// dense float couplings rather than integer-derived ones.
class LagrangianPortfolioProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LagrangianPortfolioProperty, IsingImageEqualsDirectForm) {
  problems::PortfolioGeneratorParams p;
  p.n = 12;
  p.seed = GetParam();
  const auto inst = problems::generate_portfolio(p);
  const auto mapping = problems::portfolio_to_problem(inst);
  LagrangianModel model(mapping.problem, 1.3);

  util::Xoshiro256pp rng(GetParam() + 654);
  for (int round = 0; round < 4; ++round) {
    const std::vector<double> lambda = {rng.uniform_sym() * 5.0};
    model.set_lambda(lambda);
    for (int trial = 0; trial < 15; ++trial) {
      std::vector<std::uint8_t> x(mapping.problem.n());
      for (auto& b : x) b = rng.bernoulli(0.5) ? 1 : 0;
      ASSERT_NEAR(model.ising().energy(ising::bits_to_spins(x)),
                  model.lagrangian(x), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LagrangianPortfolioProperty,
                         ::testing::Range<std::uint64_t>(0, 6));

// ---------------------------------------------------------------------------
// Build parity. The accumulate-then-convert build the row-wise constructor
// replaced, kept here as the bit-level reference for the build-order
// contract in lagrangian_model.hpp: every term through
// QuboModel::add_quadratic/add_linear, then ising::qubo_to_ising, and the
// field refresh set_lambda ran on that QUBO. memcmp, so that -0.0 against
// +0.0 counts as a difference.

struct ReferenceModel {
  ising::QuboModel qubo;  ///< f + P||g||^2 at lambda = 0
  ising::IsingModel ising;
};

ReferenceModel reference_build(const ConstrainedProblem& problem,
                               double penalty) {
  ising::QuboModel qubo(problem.n());
  const auto& f = problem.objective();
  f.for_each_quadratic([&](std::size_t i, std::size_t j, double q) {
    qubo.add_quadratic(i, j, q);
  });
  for (std::size_t i = 0; i < qubo.n(); ++i) {
    const double q = f.linear(i);
    if (q != 0.0) qubo.add_linear(i, q);
  }
  qubo.add_offset(f.offset());
  for (const auto& row : problem.constraints()) {
    for (std::size_t u = 0; u < row.terms.size(); ++u) {
      const auto [j, aj] = row.terms[u];
      qubo.add_linear(j, penalty * aj * (aj - 2.0 * row.rhs));
      for (std::size_t v = u + 1; v < row.terms.size(); ++v) {
        const auto [k, ak] = row.terms[v];
        qubo.add_quadratic(j, k, 2.0 * penalty * aj * ak);
      }
    }
    qubo.add_offset(penalty * row.rhs * row.rhs);
  }
  ising::IsingModel image = ising::qubo_to_ising(qubo);
  return {std::move(qubo), std::move(image)};
}

/// The fields and offset set_lambda wrote from the reference QUBO.
void reference_set_lambda(ReferenceModel& ref,
                          const ConstrainedProblem& problem,
                          std::span<const double> lambda) {
  const std::size_t n = ref.qubo.n();
  std::vector<double> row_sum(n, 0.0);
  double quad_offset = 0.0;
  ref.qubo.for_each_quadratic([&](std::size_t i, std::size_t j, double q) {
    row_sum[i] += q;
    row_sum[j] += q;
    quad_offset += q / 4.0;
  });
  std::vector<double> q(ref.qubo.linear_terms().begin(),
                        ref.qubo.linear_terms().end());
  double offset = ref.qubo.offset();
  for (std::size_t m = 0; m < lambda.size(); ++m) {
    if (lambda[m] == 0.0) continue;
    for (const auto& [j, aj] : problem.constraints()[m].terms) {
      q[j] += lambda[m] * aj;
    }
    offset -= lambda[m] * problem.constraints()[m].rhs;
  }
  double ising_offset = offset + quad_offset;
  for (std::size_t i = 0; i < n; ++i) {
    ref.ising.set_field(i, -(q[i] / 2.0 + row_sum[i] / 4.0));
    ising_offset += q[i] / 2.0;
  }
  ref.ising.set_offset(ising_offset);
}

void expect_same_bits(const ising::IsingModel& got,
                      const ising::IsingModel& want) {
  ASSERT_EQ(got.n(), want.n());
  const std::size_t n = got.n();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::memcmp(got.row(i).data(), want.row(i).data(),
                          n * sizeof(double)),
              0)
        << "J row " << i;
  }
  ASSERT_EQ(std::memcmp(got.fields().data(), want.fields().data(),
                        n * sizeof(double)),
            0)
      << "h";
  const double got_offset = got.offset();
  const double want_offset = want.offset();
  ASSERT_EQ(std::memcmp(&got_offset, &want_offset, sizeof(double)), 0)
      << got_offset << " vs " << want_offset;
}

/// The built model, then the same after a lambda != 0, against the
/// reference path.
void expect_build_parity(const ConstrainedProblem& problem,
                         std::uint64_t seed) {
  const double penalty = heuristic_penalty(problem, 2.0);
  LagrangianModel model(problem, penalty);
  ReferenceModel ref = reference_build(problem, penalty);
  expect_same_bits(model.ising(), ref.ising);

  util::Xoshiro256pp rng(seed);
  std::vector<double> lambda(problem.num_constraints());
  for (auto& l : lambda) l = rng.uniform_sym() * 20.0;
  ASSERT_TRUE(std::any_of(lambda.begin(), lambda.end(),
                          [](double l) { return l != 0.0; }));
  model.set_lambda(lambda);
  reference_set_lambda(ref, problem, lambda);
  expect_same_bits(model.ising(), ref.ising);
}

TEST(LagrangianBuildParity, Qkp60WithSlackBits) {
  const auto mapping =
      problems::qkp_to_problem(problems::make_paper_qkp(60, 50, 1));
  ASSERT_GT(mapping.slack.num_bits(), 0u);
  expect_build_parity(mapping.problem, 11);
}

TEST(LagrangianBuildParity, Mkp30ThreeConstraintsLinearObjective) {
  problems::MkpGeneratorParams p;
  p.n = 30;
  p.m = 3;
  const auto mapping = problems::mkp_to_problem(problems::generate_mkp(p));
  ASSERT_EQ(mapping.problem.num_constraints(), 3u);
  ASSERT_EQ(mapping.problem.objective().nnz(), 0u);
  expect_build_parity(mapping.problem, 12);
}

TEST(LagrangianBuildParity, Portfolio) {
  problems::PortfolioGeneratorParams p;
  p.n = 20;
  const auto mapping =
      problems::portfolio_to_problem(problems::generate_portfolio(p));
  expect_build_parity(mapping.problem, 13);
}

}  // namespace
}  // namespace saim::lagrange
