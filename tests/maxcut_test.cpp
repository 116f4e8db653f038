#include "problems/maxcut.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "pbit/pbit_machine.hpp"
#include "util/rng.hpp"

namespace saim::problems {
namespace {

TEST(Graph, ConstructionAndAccessors) {
  ising::Graph g(4);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(g.total_weight(), 5.0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(1), 5.0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(3), 0.0);
}

TEST(Graph, RejectsBadEdges) {
  ising::Graph g(3);
  EXPECT_THROW(g.add_edge(0, 3), std::out_of_range);
  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);
  EXPECT_THROW((void)g.weighted_degree(5), std::out_of_range);
}

TEST(Graph, CutValueCountsCrossingEdges) {
  ising::Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(0, 2, 4.0);
  const std::vector<std::int8_t> side = {1, -1, 1};
  // Crossing: 0-1 and 1-2 -> 3.0.
  EXPECT_DOUBLE_EQ(g.cut_value(side), 3.0);
  EXPECT_THROW((void)g.cut_value(std::vector<std::int8_t>{1, 1}),
               std::invalid_argument);
}

TEST(Graph, SaveLoadRoundTrip) {
  ising::Graph g(4);
  g.add_edge(0, 3, 1.5);
  g.add_edge(2, 1, -0.5);
  std::stringstream ss;
  g.save(ss);
  const auto loaded = ising::Graph::load(ss);
  EXPECT_EQ(loaded.num_vertices(), 4u);
  ASSERT_EQ(loaded.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(loaded.edges()[0].weight, 1.5);
  EXPECT_EQ(loaded.edges()[1].u, 2u);
}

TEST(Graph, GnpRespectsDensityAndSeed) {
  const auto a = ising::random_gnp_graph(40, 0.3, 5);
  const auto b = ising::random_gnp_graph(40, 0.3, 5);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  const double expected = 0.3 * 40 * 39 / 2.0;
  EXPECT_NEAR(static_cast<double>(a.num_edges()), expected,
              0.35 * expected);
  EXPECT_THROW(ising::random_gnp_graph(10, 1.5, 1), std::invalid_argument);
}

TEST(Graph, TorusGridDegreeFour) {
  const auto g = ising::torus_grid_graph(4, 5);
  EXPECT_EQ(g.num_vertices(), 20u);
  EXPECT_EQ(g.num_edges(), 40u);  // 2 edges per vertex on a torus
  for (std::size_t v = 0; v < 20; ++v) {
    EXPECT_DOUBLE_EQ(g.weighted_degree(v), 4.0);
  }
  EXPECT_THROW(ising::torus_grid_graph(1, 5), std::invalid_argument);
}

TEST(MaxCut, IsingEnergyEqualsNegativeCut) {
  // Exhaustive identity check H(m) == -cut(m) on a random weighted graph.
  const auto g = ising::random_gnp_graph(8, 0.5, 3, 0.5, 2.0);
  const auto model = maxcut_to_ising(g);
  std::vector<std::int8_t> side(8);
  for (std::uint64_t code = 0; code < 256; ++code) {
    for (std::size_t v = 0; v < 8; ++v) {
      side[v] = (code >> v) & 1ULL ? std::int8_t{1} : std::int8_t{-1};
    }
    ASSERT_NEAR(model.energy(side), -g.cut_value(side), 1e-9);
  }
}

TEST(MaxCut, GreedyAchievesHalfTotalWeight) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto g = ising::random_gnp_graph(30, 0.4, seed, 1.0, 3.0);
    const auto side = maxcut_greedy(g);
    EXPECT_GE(g.cut_value(side), g.total_weight() / 2.0 - 1e-9)
        << "seed=" << seed;
  }
}

TEST(MaxCut, LocalSearchReachesOneOptLocalOptimum) {
  const auto g = ising::random_gnp_graph(20, 0.4, 9);
  std::vector<std::int8_t> side(20, 1);
  const double cut = maxcut_local_search(g, side);
  EXPECT_DOUBLE_EQ(cut, g.cut_value(side));
  // 1-opt: no single move improves.
  for (std::size_t v = 0; v < 20; ++v) {
    auto moved = side;
    moved[v] = static_cast<std::int8_t>(-moved[v]);
    EXPECT_LE(g.cut_value(moved), cut + 1e-9);
  }
}

TEST(MaxCut, ExhaustiveOnCompleteBipartiteStructure) {
  // K4 with unit weights: max cut = 4 (2+2 split).
  ising::Graph g(4);
  for (std::size_t u = 0; u < 4; ++u) {
    for (std::size_t v = u + 1; v < 4; ++v) g.add_edge(u, v);
  }
  EXPECT_DOUBLE_EQ(maxcut_exhaustive(g), 4.0);
}

TEST(MaxCut, PBitMachineFindsOptimalCut) {
  // The paper's claim in miniature: annealing the max-cut Ising image
  // solves the problem. Verify against enumeration.
  const auto g = ising::random_gnp_graph(14, 0.5, 21);
  const double opt = maxcut_exhaustive(g);
  const auto model = maxcut_to_ising(g);
  pbit::PBitMachine machine(model);
  util::Xoshiro256pp rng(4);
  pbit::AnnealOptions opts;
  opts.sweeps = 500;
  const auto result = machine.anneal(pbit::Schedule::linear(5.0), opts, rng);
  EXPECT_NEAR(-result.last_energy, opt, 1e-9);
}

// Property sweep: greedy <= local-search-from-greedy <= exhaustive.
class MaxCutBounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxCutBounds, HeuristicChainIsMonotone) {
  const auto g = ising::random_gnp_graph(12, 0.5, GetParam(), 1.0, 4.0);
  const double opt = maxcut_exhaustive(g);
  auto side = maxcut_greedy(g);
  const double greedy_cut = g.cut_value(side);
  const double ls_cut = maxcut_local_search(g, side);
  EXPECT_LE(greedy_cut, ls_cut + 1e-9);
  EXPECT_LE(ls_cut, opt + 1e-9);
  EXPECT_GE(greedy_cut, g.total_weight() / 2.0 - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, MaxCutBounds,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace saim::problems
