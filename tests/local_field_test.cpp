#include "ising/local_field.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ising/adjacency.hpp"
#include "csr_reference.hpp"
#include "ising/ising_model.hpp"
#include "nondyadic_models.hpp"
#include "util/rng.hpp"

namespace saim::ising {
namespace {

/// Random model with double-valued couplings (general-precision case).
IsingModel random_model(std::size_t n, double density, std::uint64_t seed) {
  IsingModel model(n);
  util::Xoshiro256pp rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform01() < density) {
        model.add_coupling(i, j, rng.uniform_sym());
      }
    }
    model.add_field(i, rng.uniform_sym());
  }
  return model;
}

Spins random_spins(std::size_t n, util::Xoshiro256pp& rng) {
  Spins m(n);
  for (auto& s : m) s = rng.bernoulli(0.5) ? 1 : -1;
  return m;
}

TEST(LocalFieldState, ResetMatchesDenseInputs) {
  const auto model = random_model(24, 0.4, 1);
  const Adjacency adj(model);
  util::Xoshiro256pp rng(2);
  const Spins m = random_spins(model.n(), rng);

  LocalFieldState lfs(model, adj);
  lfs.reset(m);
  for (std::size_t i = 0; i < model.n(); ++i) {
    EXPECT_NEAR(lfs.field(i), model.input(m, i), 1e-12);
  }
  EXPECT_NEAR(lfs.energy(), model.energy(m), 1e-12);
}

TEST(LocalFieldState, StaysInSyncThroughManyFlips) {
  const auto model = random_model(32, 0.3, 3);
  const Adjacency adj(model);
  util::Xoshiro256pp rng(4);
  Spins m = random_spins(model.n(), rng);

  LocalFieldState lfs(model, adj);
  lfs.reset(m);
  for (int step = 0; step < 500; ++step) {
    const auto i = static_cast<std::size_t>(rng.below(model.n()));
    const double expected_delta = model.flip_delta(m, i);
    EXPECT_NEAR(lfs.flip_delta(m, i), expected_delta, 1e-9);
    const double delta = lfs.flip(m, i);
    EXPECT_NEAR(delta, expected_delta, 1e-9);
  }
  // After 500 incremental updates the engine still agrees with the dense
  // recompute to tight tolerance.
  for (std::size_t i = 0; i < model.n(); ++i) {
    EXPECT_NEAR(lfs.field(i), model.input(m, i), 1e-9);
  }
  EXPECT_NEAR(lfs.energy(), model.energy(m), 1e-9);
}

TEST(LocalFieldState, ReadsFieldUpdatesLive) {
  // SAIM's lambda updates rewrite h between runs; the engine must see the
  // new fields without a reset.
  auto model = random_model(10, 0.5, 5);
  const Adjacency adj(model);
  util::Xoshiro256pp rng(6);
  const Spins m = random_spins(model.n(), rng);

  LocalFieldState lfs(model, adj);
  lfs.reset(m);
  const double before = lfs.field(3);
  model.set_field(3, model.field(3) + 2.5);
  EXPECT_NEAR(lfs.field(3), before + 2.5, 1e-12);
}

TEST(LocalFieldState, SwapExchangesConfigurations) {
  const auto model = random_model(16, 0.5, 7);
  const Adjacency adj(model);
  util::Xoshiro256pp rng(8);
  Spins a = random_spins(model.n(), rng);
  Spins b = random_spins(model.n(), rng);

  LocalFieldState fa(model, adj);
  LocalFieldState fb(model, adj);
  fa.reset(a);
  fb.reset(b);
  const double ea = fa.energy();
  const double eb = fb.energy();

  swap(fa, fb);
  EXPECT_DOUBLE_EQ(fa.energy(), eb);
  EXPECT_DOUBLE_EQ(fb.energy(), ea);
  for (std::size_t i = 0; i < model.n(); ++i) {
    EXPECT_NEAR(fa.field(i), model.input(b, i), 1e-12);
    EXPECT_NEAR(fb.field(i), model.input(a, i), 1e-12);
  }
}

TEST(LocalFieldState, FlipIsAnInvolutionOnEnergy) {
  const auto model = random_model(20, 0.4, 9);
  const Adjacency adj(model);
  util::Xoshiro256pp rng(10);
  Spins m = random_spins(model.n(), rng);

  LocalFieldState lfs(model, adj);
  lfs.reset(m);
  const double e0 = lfs.energy();
  const double d1 = lfs.flip(m, 5);
  const double d2 = lfs.flip(m, 5);
  EXPECT_NEAR(d1, -d2, 1e-12);
  EXPECT_NEAR(lfs.energy(), e0, 1e-12);
}

/// Test-local copy of the CSR scatter flip over a test-local CSR (C[]
/// from its per-row sums): the reference the dense-row path must match bit
/// for bit.
struct CsrReference {
  const IsingModel* model;
  const testing_models::CsrAdjacency* adj;
  std::vector<double> c;
  double energy = 0.0;

  void reset(const Spins& m) {
    c.resize(model->n());
    for (std::size_t i = 0; i < model->n(); ++i) {
      c[i] = adj->coupling_input(m, i);
    }
    energy = model->energy(m);
  }
  void flip(Spins& m, std::size_t i) {
    const double delta =
        2.0 * static_cast<double>(m[i]) * (c[i] + model->fields()[i]);
    m[i] = static_cast<std::int8_t>(-m[i]);
    const auto mi = static_cast<double>(m[i]);
    const auto nbr = adj->neighbors(i);
    const auto w = adj->weights(i);
    for (std::size_t k = 0; k < nbr.size(); ++k) {
      c[nbr[k]] += 2.0 * w[k] * mi;
    }
    energy += delta;
  }
};

/// Flips `flips` random spins through the engine and the CSR reference
/// side by side; C[] and the energy must stay bit-equal throughout.
void expect_flips_match_csr(const IsingModel& model, std::uint64_t seed,
                            std::size_t flips) {
  const Adjacency adj(model);
  const testing_models::CsrAdjacency csr(model);
  util::Xoshiro256pp rng(seed);
  Spins m = random_spins(model.n(), rng);
  Spins ref_m = m;
  LocalFieldState lfs(model, adj);
  lfs.reset(m);
  CsrReference ref{&model, &csr, {}, 0.0};
  ref.reset(ref_m);
  for (std::size_t step = 0; step < flips; ++step) {
    const auto i = static_cast<std::size_t>(rng.below(model.n()));
    lfs.flip(m, i);
    ref.flip(ref_m, i);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(lfs.energy()),
              std::bit_cast<std::uint64_t>(ref.energy))
        << "n=" << model.n() << " step " << step;
    const auto c = lfs.coupling_inputs();
    for (std::size_t j = 0; j < model.n(); ++j) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(c[j]),
                std::bit_cast<std::uint64_t>(ref.c[j]))
          << "n=" << model.n() << " step " << step << " C_" << j;
    }
  }
  EXPECT_EQ(m, ref_m);
}

TEST(LocalFieldState, DenseRowFlipsMatchCsrScatterBitForBit) {
  // Non-dyadic dense models, including n = 1, 2, 3, 5 and sizes that leave
  // every remainder of the 4-lane axpy.
  std::size_t total = 0;
  std::uint64_t seed = 20;
  for (const std::size_t n : {1u, 2u, 3u, 5u, 8u, 13u, 42u, 67u}) {
    for (const double density : {1.0, 0.6}) {
      const auto model = random_model(n, density, seed++);
      if (n > 1 && density == 1.0) {
        EXPECT_TRUE(Adjacency(model).dense());
      }
      expect_flips_match_csr(model, seed++, 2000);
      total += 2000;
    }
  }
  EXPECT_GE(total, 10000u);
}

TEST(LocalFieldState, DenseRowFlipsKeepExactZeroCouplingInputs) {
  // ±1 couplings make C_j hit exactly 0.0, where an added -0.0 from a
  // non-neighbour would show if C_j could ever be -0.0.
  IsingModel model(9);
  util::Xoshiro256pp rng(31);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = i + 1; j < 9; ++j) {
      if (rng.uniform01() < 0.7) {
        model.add_coupling(i, j, rng.bernoulli(0.5) ? 1.0 : -1.0);
      }
    }
  }
  ASSERT_TRUE(Adjacency(model).dense());
  expect_flips_match_csr(model, 32, 5000);
}

/// n = 10 with `edges` couplings: 15 edges fill exactly 30/100 of the
/// matrix (a dense adjacency), 14 fall just below it (a CSR).
IsingModel threshold_model(std::size_t edges) {
  IsingModel model(10);
  util::Xoshiro256pp rng(40 + edges);
  std::size_t added = 0;
  for (std::size_t i = 0; i < 10 && added < edges; ++i) {
    for (std::size_t j = i + 1; j < 10 && added < edges; ++j, ++added) {
      model.add_coupling(i, j, rng.uniform_sym());
    }
    model.add_field(i, rng.uniform_sym());
  }
  return model;
}

TEST(LocalFieldState, DenseRowThresholdIsThreeTenthsFill) {
  // Both sides of the threshold must match the reference.
  for (const std::size_t edges : {15u, 14u}) {
    const IsingModel model = threshold_model(edges);
    const Adjacency adj(model);
    ASSERT_EQ(adj.edge_count(), edges);
    EXPECT_EQ(adj.dense(), edges == 15u);
    expect_flips_match_csr(model, 50 + edges, 2000);
  }
}

/// coupling_inputs (and so reset) and the per-row coupling_input against
/// the test-local CSR's per-row sums, bit for bit, over random states and
/// the two uniform ones.
void expect_batch_inputs_match_per_row(const IsingModel& model,
                                       std::uint64_t seed) {
  const Adjacency adj(model);
  const testing_models::CsrAdjacency csr(model);
  const std::size_t n = model.n();
  util::Xoshiro256pp rng(seed);
  std::vector<double> out(n);
  LocalFieldState lfs(model, adj);
  for (int state = 0; state < 12; ++state) {
    Spins m = testing_models::random_spins(n, rng);
    if (state < 2) m.assign(n, state == 0 ? 1 : -1);
    adj.coupling_inputs(m, out);
    lfs.reset(m);
    const auto c = lfs.coupling_inputs();
    for (std::size_t i = 0; i < n; ++i) {
      const auto want = std::bit_cast<std::uint64_t>(csr.coupling_input(m, i));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]), want)
          << "n=" << n << " state " << state << " C_" << i
          << " degree " << adj.degree(i) << " dense " << adj.dense();
      ASSERT_EQ(std::bit_cast<std::uint64_t>(adj.coupling_input(m, i)), want)
          << "n=" << n << " state " << state << " per-row C_" << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(c[i]), want)
          << "n=" << n << " state " << state << " reset C_" << i;
    }
  }
}

TEST(LocalFieldState, BatchCouplingInputsMatchPerRowOnRealModels) {
  std::uint64_t seed = 60;
  for (const std::size_t n : testing_models::pin_sizes()) {
    for (const double fill : {0.2, 0.5, 1.0}) {
      SCOPED_TRACE(fill);
      expect_batch_inputs_match_per_row(
          testing_models::random_real_model(n, fill, seed), seed + 1);
      seed += 2;
    }
  }
}

TEST(LocalFieldState, BatchCouplingInputsMatchPerRowAtTheDenseThreshold) {
  for (const std::size_t edges : {15u, 14u}) {
    const IsingModel model = threshold_model(edges);
    ASSERT_EQ(Adjacency(model).dense(), edges == 15u);
    expect_batch_inputs_match_per_row(model, 60 + edges);
  }
}

TEST(LocalFieldState, BatchCouplingInputsMatchPerRowOnMixedRows) {
  std::uint64_t seed = 70;
  for (const std::size_t n : testing_models::pin_sizes()) {
    const auto model = testing_models::mixed_rows_model(n, seed);
    if (n >= 7) {
      // Both kinds of row are present: row 0 is complete, and some row is
      // not.
      const Adjacency adj(model);
      EXPECT_TRUE(adj.dense());
      EXPECT_EQ(adj.degree(0), n - 1);
      std::size_t sparse = 0;
      for (std::size_t i = 0; i < n; ++i) {
        sparse += adj.degree(i) + 1 < n ? 1 : 0;
      }
      EXPECT_GT(sparse, 0u) << "n=" << n;
    }
    expect_batch_inputs_match_per_row(model, seed + 1);
    seed += 2;
  }
}

TEST(LocalFieldState, BatchCouplingInputsMatchPerRowOnQkpLagrangians) {
  struct Case {
    std::size_t items;
    int density;
    std::size_t n;
  };
  for (const Case c : {Case{22, 50, 30}, Case{50, 25, 60}, Case{200, 25, 212}}) {
    const auto model = testing_models::qkp_lagrangian(c.items, c.density, 1);
    ASSERT_EQ(model.n(), c.n);
    expect_batch_inputs_match_per_row(model, 80 + c.n);
  }
}

}  // namespace
}  // namespace saim::ising
