// Trajectory parity between the refactored backends (incremental
// LocalFieldState engine) and the recompute-every-visit sweep loops they
// replaced. One reference implementation of each backend's dynamics is
// kept here, transcribed from the pre-refactor code: the local field
// I_i = sum_j J_ij m_j + h_i is re-summed through a CSR (the test-local
// copy in csr_reference.hpp, built for every model) on every visit
// and energies are accumulated exactly as the old loops did.
//
// On a model whose couplings, fields and all partial sums are dyadic
// rationals (multiples of 1/8 with bounded magnitude) every floating-point
// operation on both paths is exact, so the engines must reproduce the
// reference trajectories BIT-FOR-BIT: same RNG draws, same accept
// decisions, same final state and energy.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "anneal/parallel_tempering.hpp"
#include "anneal/simulated_annealing.hpp"
#include "anneal/sqa.hpp"
#include "anneal/tabu.hpp"
#include "csr_reference.hpp"
#include "ising/ising_model.hpp"
#include "pbit/pbit_machine.hpp"
#include "pbit/schedule.hpp"
#include "util/rng.hpp"

namespace saim {
namespace {

using testing_models::CsrAdjacency;
using ising::IsingModel;
using ising::Spins;

/// Couplings and fields are multiples of 1/8 in [-2, 2]: every local-field
/// partial sum and energy stays an exactly-representable dyadic rational,
/// making incremental and recomputed arithmetic bit-identical.
IsingModel dyadic_model(std::size_t n, double density, std::uint64_t seed) {
  IsingModel model(n);
  util::Xoshiro256pp rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform01() < density) {
        const double w = static_cast<double>(rng.range(-16, 16)) / 8.0;
        if (w != 0.0) model.add_coupling(i, j, w);
      }
    }
    model.add_field(i, static_cast<double>(rng.range(-16, 16)) / 8.0);
  }
  return model;
}

Spins draw_state(std::size_t n, util::Xoshiro256pp& rng) {
  Spins m(n);
  for (auto& s : m) s = rng.bernoulli(0.5) ? std::int8_t{1} : std::int8_t{-1};
  return m;
}

/// Recompute-every-visit local field — the pattern all backends used.
double reference_input(const IsingModel& model, const CsrAdjacency& adj,
                       const Spins& m, std::size_t i) {
  return adj.coupling_input(m, i) + model.field(i);
}

// ------------------------------------------------------------------ p-bit

struct RefAnneal {
  Spins last;
  double last_energy = 0.0;
};

RefAnneal reference_pbit(const IsingModel& model, const pbit::Schedule& sched,
                         std::size_t sweeps, util::Xoshiro256pp& rng) {
  const CsrAdjacency adj(model);
  RefAnneal result;
  result.last = draw_state(model.n(), rng);
  double energy = model.energy(result.last);
  for (std::size_t t = 0; t < sweeps; ++t) {
    const double beta = sched.beta(t, sweeps);
    double delta_energy = 0.0;
    for (std::size_t i = 0; i < model.n(); ++i) {
      const double in = reference_input(model, adj, result.last, i);
      const double activation = std::tanh(beta * in);
      const std::int8_t next =
          (activation + rng.uniform_sym()) >= 0.0 ? std::int8_t{1}
                                                  : std::int8_t{-1};
      if (next != result.last[i]) {
        delta_energy += 2.0 * static_cast<double>(result.last[i]) * in;
        result.last[i] = next;
      }
    }
    energy += delta_energy;
  }
  result.last_energy = energy;
  return result;
}

TEST(LocalFieldParity, PBitMachineMatchesRecomputeReference) {
  const auto model = dyadic_model(40, 0.35, 11);
  const auto sched = pbit::Schedule::linear(4.0);

  pbit::PBitMachine machine(model);
  pbit::AnnealOptions opts;
  opts.sweeps = 120;

  util::Xoshiro256pp rng_engine(99);
  const auto engine = machine.anneal(sched, opts, rng_engine);

  util::Xoshiro256pp rng_ref(99);
  const auto ref = reference_pbit(model, sched, opts.sweeps, rng_ref);

  EXPECT_EQ(engine.last, ref.last);
  EXPECT_EQ(engine.last_energy, ref.last_energy);
  // Both consumed identical draw counts iff the streams are aligned.
  EXPECT_EQ(rng_engine(), rng_ref());
}

// ------------------------------------------------------------- Metropolis

RefAnneal reference_metropolis(const IsingModel& model,
                               const pbit::Schedule& sched,
                               std::size_t sweeps, util::Xoshiro256pp& rng) {
  const CsrAdjacency adj(model);
  RefAnneal result;
  result.last = draw_state(model.n(), rng);
  double energy = model.energy(result.last);
  for (std::size_t t = 0; t < sweeps; ++t) {
    const double beta = sched.beta(t, sweeps);
    for (std::size_t i = 0; i < model.n(); ++i) {
      const double in = reference_input(model, adj, result.last, i);
      const double delta = 2.0 * static_cast<double>(result.last[i]) * in;
      if (delta <= 0.0 || rng.uniform01() < std::exp(-beta * delta)) {
        result.last[i] = static_cast<std::int8_t>(-result.last[i]);
        energy += delta;
      }
    }
  }
  result.last_energy = energy;
  return result;
}

TEST(LocalFieldParity, MetropolisSaMatchesRecomputeReference) {
  const auto model = dyadic_model(40, 0.35, 13);
  const auto sched = pbit::Schedule::linear(3.0);

  anneal::MetropolisSa sa(model);
  anneal::SaOptions opts;
  opts.sweeps = 150;

  util::Xoshiro256pp rng_engine(7);
  const auto engine = sa.run(sched, opts, rng_engine);

  util::Xoshiro256pp rng_ref(7);
  const auto ref = reference_metropolis(model, sched, opts.sweeps, rng_ref);

  EXPECT_EQ(engine.last, ref.last);
  EXPECT_EQ(engine.last_energy, ref.last_energy);
  EXPECT_EQ(rng_engine(), rng_ref());
}

// ------------------------------------------------------ parallel tempering

RefAnneal reference_pt(const IsingModel& model,
                       const anneal::PtOptions& options,
                       util::Xoshiro256pp& rng) {
  const CsrAdjacency adj(model);
  const std::size_t r = options.replicas;

  std::vector<double> betas(r);
  const double ratio = options.beta_max / options.beta_min;
  for (std::size_t k = 0; k < r; ++k) {
    betas[k] = options.beta_min *
               std::pow(ratio, static_cast<double>(k) /
                                   static_cast<double>(r - 1));
  }

  std::vector<Spins> states(r);
  std::vector<double> energies(r);
  for (std::size_t k = 0; k < r; ++k) {
    states[k] = draw_state(model.n(), rng);
    energies[k] = model.energy(states[k]);
  }

  for (std::size_t t = 0; t < options.sweeps; ++t) {
    for (std::size_t k = 0; k < r; ++k) {
      for (std::size_t i = 0; i < model.n(); ++i) {
        const double in = reference_input(model, adj, states[k], i);
        const double delta = 2.0 * static_cast<double>(states[k][i]) * in;
        if (delta <= 0.0 ||
            rng.uniform01() < std::exp(-betas[k] * delta)) {
          states[k][i] = static_cast<std::int8_t>(-states[k][i]);
          energies[k] += delta;
        }
      }
    }
    if ((t + 1) % options.swap_interval == 0) {
      const std::size_t parity = (t / options.swap_interval) % 2;
      for (std::size_t k = parity; k + 1 < r; k += 2) {
        const double arg =
            (betas[k] - betas[k + 1]) * (energies[k] - energies[k + 1]);
        if (arg >= 0.0 || rng.uniform01() < std::exp(arg)) {
          std::swap(states[k], states[k + 1]);
          std::swap(energies[k], energies[k + 1]);
        }
      }
    }
  }
  RefAnneal result;
  result.last = states[r - 1];
  result.last_energy = energies[r - 1];
  return result;
}

TEST(LocalFieldParity, ParallelTemperingMatchesRecomputeReference) {
  const auto model = dyadic_model(32, 0.35, 17);
  anneal::PtOptions opts;
  opts.replicas = 6;
  opts.beta_min = 0.2;
  opts.beta_max = 4.0;
  opts.sweeps = 80;
  opts.swap_interval = 5;

  anneal::ParallelTempering pt(model, opts);
  util::Xoshiro256pp rng_engine(21);
  const auto engine = pt.run(rng_engine);

  util::Xoshiro256pp rng_ref(21);
  const auto ref = reference_pt(model, opts, rng_ref);

  EXPECT_EQ(engine.last, ref.last);
  EXPECT_EQ(engine.last_energy, ref.last_energy);
  EXPECT_EQ(rng_engine(), rng_ref());
}

// ---------------------------------------------------------------------- SQA

RefAnneal reference_sqa(const IsingModel& model,
                        const anneal::SqaOptions& options,
                        util::Xoshiro256pp& rng) {
  const CsrAdjacency adj(model);
  const std::size_t n = model.n();
  const std::size_t slices = options.trotter_slices;
  const auto m_d = static_cast<double>(slices);

  std::vector<Spins> state(slices);
  std::vector<double> classical_energy(slices);
  for (std::size_t k = 0; k < slices; ++k) {
    state[k] = draw_state(n, rng);
    classical_energy[k] = model.energy(state[k]);
  }

  const double ratio = options.gamma_end / options.gamma_start;
  for (std::size_t t = 0; t < options.sweeps; ++t) {
    const double frac =
        options.sweeps > 1 ? static_cast<double>(t) /
                                 static_cast<double>(options.sweeps - 1)
                           : 1.0;
    const double gamma = options.gamma_start * std::pow(ratio, frac);
    const double jt = std::tanh(options.beta * gamma / m_d);
    const double jperp = -0.5 / options.beta * std::log(jt);

    for (std::size_t k = 0; k < slices; ++k) {
      const std::size_t up = (k + 1) % slices;
      const std::size_t down = (k + slices - 1) % slices;
      for (std::size_t i = 0; i < n; ++i) {
        const double classical_in =
            reference_input(model, adj, state[k], i);
        const double classical_delta =
            2.0 * static_cast<double>(state[k][i]) * classical_in / m_d;
        const double quantum_delta =
            2.0 * jperp * static_cast<double>(state[k][i]) *
            (static_cast<double>(state[up][i]) +
             static_cast<double>(state[down][i]));
        const double delta = classical_delta + quantum_delta;
        if (delta <= 0.0 ||
            rng.uniform01() < std::exp(-options.beta * delta)) {
          classical_energy[k] +=
              2.0 * static_cast<double>(state[k][i]) * classical_in;
          state[k][i] = static_cast<std::int8_t>(-state[k][i]);
        }
      }
    }
  }

  std::size_t best_k = 0;
  for (std::size_t k = 1; k < slices; ++k) {
    if (classical_energy[k] < classical_energy[best_k]) best_k = k;
  }
  RefAnneal result;
  result.last = state[best_k];
  result.last_energy = classical_energy[best_k];
  return result;
}

TEST(LocalFieldParity, SqaMatchesRecomputeReference) {
  const auto model = dyadic_model(28, 0.35, 19);
  anneal::SqaOptions opts;
  opts.trotter_slices = 6;
  opts.beta = 4.0;
  opts.gamma_start = 2.0;
  opts.gamma_end = 0.05;
  opts.sweeps = 60;

  anneal::SimulatedQuantumAnnealer sqa(model, opts);
  util::Xoshiro256pp rng_engine(33);
  const auto engine = sqa.run(rng_engine);

  util::Xoshiro256pp rng_ref(33);
  const auto ref = reference_sqa(model, opts, rng_ref);

  EXPECT_EQ(engine.last, ref.last);
  EXPECT_EQ(engine.last_energy, ref.last_energy);
  EXPECT_EQ(rng_engine(), rng_ref());
}

// --------------------------------------------------------------------- tabu

RefAnneal reference_tabu(const IsingModel& model,
                         const anneal::TabuOptions& options,
                         util::Xoshiro256pp& rng) {
  const CsrAdjacency adj(model);
  const std::size_t n = model.n();
  RefAnneal result;

  Spins state = draw_state(n, rng);
  double energy = model.energy(state);
  double incumbent_energy = energy;

  std::vector<double> delta(n);
  auto recompute_deltas = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      delta[i] = model.flip_delta(state, i);
    }
  };
  recompute_deltas();

  std::vector<std::size_t> tabu_until(n, 0);
  std::size_t stall = 0;

  for (std::size_t step = 1; step <= options.steps; ++step) {
    std::size_t best_move = n;
    double best_delta = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      const bool is_tabu = tabu_until[i] >= step;
      const bool aspirated =
          is_tabu && energy + delta[i] < incumbent_energy;
      if (is_tabu && !aspirated) continue;
      if (delta[i] < best_delta) {
        best_delta = delta[i];
        best_move = i;
      }
    }
    if (best_move == n) continue;

    const std::size_t j = best_move;
    energy += delta[j];
    state[j] = static_cast<std::int8_t>(-state[j]);
    tabu_until[j] = step + options.tenure;
    delta[j] = -delta[j];
    const auto nbr = adj.neighbors(j);
    const auto w = adj.weights(j);
    for (std::size_t k = 0; k < nbr.size(); ++k) {
      const std::size_t i = nbr[k];
      delta[i] += 4.0 * static_cast<double>(state[i]) * w[k] *
                  static_cast<double>(state[j]);
    }

    if (energy < incumbent_energy - 1e-15) {
      incumbent_energy = energy;
      stall = 0;
    } else if (options.stall_limit != 0 && ++stall >= options.stall_limit) {
      state = draw_state(n, rng);
      energy = model.energy(state);
      recompute_deltas();
      std::fill(tabu_until.begin(), tabu_until.end(), 0);
      stall = 0;
    }
  }

  result.last = state;
  result.last_energy = energy;
  return result;
}

TEST(LocalFieldParity, TabuMatchesRecomputeReference) {
  const auto model = dyadic_model(36, 0.35, 23);
  anneal::TabuOptions opts;
  opts.steps = 400;
  opts.tenure = 7;
  opts.stall_limit = 60;

  anneal::TabuSearch tabu(model, opts);
  util::Xoshiro256pp rng_engine(55);
  const auto engine = tabu.run(rng_engine);

  util::Xoshiro256pp rng_ref(55);
  const auto ref = reference_tabu(model, opts, rng_ref);

  EXPECT_EQ(engine.last, ref.last);
  EXPECT_EQ(engine.last_energy, ref.last_energy);
  EXPECT_EQ(rng_engine(), rng_ref());
}

}  // namespace
}  // namespace saim
