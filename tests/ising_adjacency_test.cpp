#include "ising/adjacency.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "csr_reference.hpp"
#include "nondyadic_models.hpp"
#include "pbit/pbit_machine.hpp"
#include "util/rng.hpp"

namespace saim::ising {
namespace {

std::size_t row_nonzeros(const IsingModel& model, std::size_t i) {
  std::size_t count = 0;
  for (const double v : model.row(i)) count += v != 0.0 ? 1 : 0;
  return count;
}

TEST(Adjacency, EmptyModel) {
  IsingModel ising(4);
  Adjacency adj(ising);
  EXPECT_EQ(adj.n(), 4u);
  EXPECT_FALSE(adj.dense());
  EXPECT_EQ(adj.edge_count(), 0u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(adj.degree(i), 0u);
    EXPECT_TRUE(adj.neighbors(i).empty());
  }
}

TEST(Adjacency, DefaultAndZeroSpinAdjacenciesHoldNothing) {
  const Adjacency none;
  EXPECT_EQ(none.n(), 0u);
  EXPECT_EQ(none.edge_count(), 0u);
  EXPECT_FALSE(none.dense());
  const Adjacency empty{IsingModel(0)};
  EXPECT_EQ(empty.edge_count(), 0u);
  EXPECT_FALSE(empty.dense());
}

TEST(Adjacency, SingleEdgeBothDirections) {
  IsingModel ising(3);
  ising.add_coupling(0, 2, 1.5);
  Adjacency adj(ising);
  ASSERT_FALSE(adj.dense());  // 2 of 9 entries
  EXPECT_EQ(adj.edge_count(), 1u);
  ASSERT_EQ(adj.neighbors(0).size(), 1u);
  EXPECT_EQ(adj.neighbors(0)[0], 2u);
  EXPECT_DOUBLE_EQ(adj.weights(0)[0], 1.5);
  ASSERT_EQ(adj.neighbors(2).size(), 1u);
  EXPECT_EQ(adj.neighbors(2)[0], 0u);
  EXPECT_TRUE(adj.neighbors(1).empty());
}

TEST(Adjacency, DenseFromThreeTenthsFill) {
  // n = 10: 15 edges (30 entries) fill exactly 30/100 of the matrix, 14
  // edges fall just below it.
  for (const std::size_t edges : {15u, 14u}) {
    IsingModel model(10);
    std::size_t added = 0;
    for (std::size_t i = 0; i < 10 && added < edges; ++i) {
      for (std::size_t j = i + 1; j < 10 && added < edges; ++j, ++added) {
        model.add_coupling(i, j, 0.25 + static_cast<double>(added));
      }
    }
    const Adjacency adj(model);
    EXPECT_EQ(adj.edge_count(), edges);
    EXPECT_EQ(adj.dense(), edges == 15u);
    EXPECT_EQ(adj.dense_rows(),
              edges == 15u ? model.row(0).data() : nullptr);
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_EQ(adj.degree(i), row_nonzeros(model, i)) << "row " << i;
    }
  }
}

TEST(Adjacency, DenseViewBorrowsJAndCountsEachRowsNonzeros) {
  // Complete rows (degree n-1) and incomplete ones, one model.
  const auto model = testing_models::mixed_rows_model(20, 5);
  const Adjacency adj(model);
  ASSERT_TRUE(adj.dense());
  EXPECT_EQ(adj.dense_rows(), model.row(0).data());
  EXPECT_EQ(adj.edge_count(), model.nnz());
  std::size_t complete = 0;
  std::size_t incomplete = 0;
  for (std::size_t i = 0; i < model.n(); ++i) {
    EXPECT_EQ(adj.degree(i), row_nonzeros(model, i)) << "row " << i;
    (adj.degree(i) + 1 == model.n() ? complete : incomplete) += 1;
  }
  EXPECT_GT(complete, 0u);
  EXPECT_GT(incomplete, 0u);
}

TEST(Adjacency, SignedZeroIsNoCouplingInEitherView) {
  // A finished J may hold -0.0 (IsingModel's matrix constructor takes it
  // as is); like the CSR build, both views skip it.
  constexpr std::size_t n = 9;
  std::vector<double> j(n * n, 0.0);
  util::Xoshiro256pp rng(3);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r + 1; c < n; ++c) {
      const double u = rng.uniform01();
      const double v = u < 0.2 ? -0.0 : u < 0.3 ? 0.0 : rng.uniform_sym();
      j[r * n + c] = v;
      j[c * n + r] = v;
    }
  }
  const IsingModel model(j, std::vector<double>(n, 0.0), 0.0);
  const Adjacency adj(model);
  const testing_models::CsrAdjacency csr(model);
  ASSERT_TRUE(adj.dense());
  EXPECT_EQ(adj.edge_count(), csr.edge_count());
  for (int state = 0; state < 8; ++state) {
    const Spins m = testing_models::random_spins(n, rng);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(adj.degree(i), csr.neighbors(i).size());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(adj.coupling_input(m, i)),
                std::bit_cast<std::uint64_t>(csr.coupling_input(m, i)))
          << "state " << state << " row " << i;
    }
  }
}

TEST(Adjacency, PBitMachineInputMatchesCsrReferenceOnDenseModels) {
  // PBitMachine::input recomputes I_i per visit through coupling_input;
  // on a dense model that reads J's rows, and it must equal the CSR sum.
  std::uint64_t seed = 90;
  for (const std::size_t n : {5u, 12u, 13u, 14u, 15u, 37u}) {
    for (const bool mixed : {false, true}) {
      const auto model =
          mixed ? testing_models::mixed_rows_model(n, seed)
                : testing_models::random_real_model(n, 1.0, seed);
      ++seed;
      ASSERT_TRUE(Adjacency(model).dense()) << "n=" << n;
      const pbit::PBitMachine machine(model);
      const testing_models::CsrAdjacency csr(model);
      util::Xoshiro256pp rng(seed);
      for (int state = 0; state < 6; ++state) {
        const Spins m = machine.random_state(rng);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(machine.input(m, i)),
                    std::bit_cast<std::uint64_t>(csr.coupling_input(m, i) +
                                                 model.field(i)))
              << "n=" << n << " mixed=" << mixed << " row " << i;
        }
      }
    }
  }
}

// Property sweep: coupling_input must equal the dense model input minus
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
    EXPECT_EQ(adj.degree(i), row_nonzeros(ising, i));
    degree_sum += adj.degree(i);
  }
  EXPECT_EQ(degree_sum, 2 * adj.edge_count());
}

// coupling_input's summation order, and so every engine's bits, follows
// the entry order: row i lists the nonzeros of dense row i by ascending j.
// The sparse view stores them; the dense view reads them from J's rows.
TEST_P(AdjacencyProperty, RowsListDenseNonzerosInAscendingOrder) {
  util::Xoshiro256pp rng(GetParam() + 777);
  const std::size_t n = 1 + rng.below(24);
  const double fill = GetParam() % 2 == 0 ? 0.5 : 0.1;
  IsingModel ising(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(fill)) ising.add_coupling(i, j, rng.uniform_sym());
    }
  }
  Adjacency adj(ising);
  if (adj.dense()) {
    EXPECT_EQ(adj.dense_rows(), ising.row(0).data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(adj.degree(i), row_nonzeros(ising, i));
    }
    return;
  }
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
