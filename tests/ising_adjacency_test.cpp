#include "ising/adjacency.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace saim::ising {
namespace {

TEST(Adjacency, EmptyModel) {
  IsingModel ising(4);
  Adjacency adj(ising);
  EXPECT_EQ(adj.n(), 4u);
  EXPECT_EQ(adj.edge_count(), 0u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(adj.neighbors(i).empty());
  }
}

TEST(Adjacency, SingleEdgeBothDirections) {
  IsingModel ising(3);
  ising.add_coupling(0, 2, 1.5);
  Adjacency adj(ising);
  EXPECT_EQ(adj.edge_count(), 1u);
  ASSERT_EQ(adj.neighbors(0).size(), 1u);
  EXPECT_EQ(adj.neighbors(0)[0], 2u);
  EXPECT_DOUBLE_EQ(adj.weights(0)[0], 1.5);
  ASSERT_EQ(adj.neighbors(2).size(), 1u);
  EXPECT_EQ(adj.neighbors(2)[0], 0u);
  EXPECT_TRUE(adj.neighbors(1).empty());
}

// Property sweep: CSR coupling_input must equal the dense model input minus
// the field on random graphs and random states.
class AdjacencyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdjacencyProperty, CouplingInputMatchesDense) {
  util::Xoshiro256pp rng(GetParam());
  const std::size_t n = 2 + rng.below(20);
  IsingModel ising(n);
  for (std::size_t i = 0; i < n; ++i) {
    ising.add_field(i, rng.uniform_sym());
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(0.4)) {
        ising.add_coupling(i, j, rng.uniform_sym() * 2.0);
      }
    }
  }
  Adjacency adj(ising);
  EXPECT_EQ(adj.edge_count(), ising.nnz());

  Spins m(n);
  for (auto& s : m) s = rng.bernoulli(0.5) ? 1 : -1;
  for (std::size_t i = 0; i < n; ++i) {
    const double dense = ising.input(m, i) - ising.field(i);
    EXPECT_NEAR(adj.coupling_input(m, i), dense, 1e-10);
  }
}

TEST_P(AdjacencyProperty, DegreesSumToTwiceEdges) {
  util::Xoshiro256pp rng(GetParam() + 333);
  const std::size_t n = 2 + rng.below(16);
  IsingModel ising(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(0.3)) ising.add_coupling(i, j, 1.0);
    }
  }
  Adjacency adj(ising);
  std::size_t degree_sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    degree_sum += adj.neighbors(i).size();
  }
  EXPECT_EQ(degree_sum, 2 * adj.edge_count());
}

// coupling_input's summation order, and so every engine's bits, follows
// the CSR order: row i lists the nonzeros of dense row i by ascending j.
TEST_P(AdjacencyProperty, RowsListDenseNonzerosInAscendingOrder) {
  util::Xoshiro256pp rng(GetParam() + 777);
  const std::size_t n = 1 + rng.below(24);
  IsingModel ising(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(0.5)) ising.add_coupling(i, j, rng.uniform_sym());
    }
  }
  Adjacency adj(ising);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint32_t> want_nbr;
    std::vector<double> want_w;
    for (std::size_t j = 0; j < n; ++j) {
      if (ising.coupling(i, j) != 0.0) {
        want_nbr.push_back(static_cast<std::uint32_t>(j));
        want_w.push_back(ising.coupling(i, j));
      }
    }
    const auto nbr = adj.neighbors(i);
    const auto w = adj.weights(i);
    EXPECT_EQ(std::vector<std::uint32_t>(nbr.begin(), nbr.end()), want_nbr);
    EXPECT_EQ(std::vector<double>(w.begin(), w.end()), want_w);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, AdjacencyProperty,
                         ::testing::Range<std::uint64_t>(0, 15));

}  // namespace
}  // namespace saim::ising
