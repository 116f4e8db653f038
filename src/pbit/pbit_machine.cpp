#include "pbit/pbit_machine.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "util/accept_bounds.hpp"

namespace saim::pbit {

PBitMachine::PBitMachine(const ising::IsingModel& model)
    : model_(&model), adjacency_(model) {}

ising::Spins PBitMachine::random_state(util::Xoshiro256pp& rng) const {
  ising::Spins m(n());
  for (auto& s : m) {
    s = rng.bernoulli(0.5) ? std::int8_t{1} : std::int8_t{-1};
  }
  return m;
}

void PBitMachine::sweep(ising::Spins& m, ising::LocalFieldState& lfs,
                        double beta, SweepOrder order,
                        util::Xoshiro256pp& rng,
                        std::vector<std::uint32_t>& scratch) const {
  const std::size_t size = n();
  const bool uniform = order == SweepOrder::kRandomUniform;
  if (!uniform) {
    scratch.resize(size);
    std::iota(scratch.begin(), scratch.end(), 0u);
    if (order == SweepOrder::kRandomPermutation) {
      // Fisher-Yates with the solver's own RNG for determinism.
      for (std::size_t i = size; i > 1; --i) {
        const std::size_t j = rng.below(i);
        std::swap(scratch[i - 1], scratch[j]);
      }
    }
  }

  const double* c = lfs.coupling_inputs().data();
  const double* h = model_->fields().data();
  const util::F64x4 betav = util::F64x4::broadcast(beta);
  for (std::size_t k = 0; k < size; k += 4) {
    // Draw the block's visits first, in the order a one-spin-at-a-time
    // loop consumes them: one uniform_sym per visit, each after its
    // below() pick in kRandomUniform order.
    const std::size_t count = std::min<std::size_t>(4, size - k);
    std::uint32_t idx[4] = {0, 0, 0, 0};
    double u[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t l = 0; l < count; ++l) {
      idx[l] = uniform ? static_cast<std::uint32_t>(rng.below(size))
                       : scratch[k + l];
      u[l] = rng.uniform_sym();
    }
    const util::F64x4 uv = util::F64x4::load(u);

    // m_i = sign(tanh(beta*I_i) + U(-1,1)) for the block's 4 visits in one
    // masked test. The first lane whose decision disagrees with its spin
    // flips; only the later lanes are then re-decided, against the updated
    // C[] and spins and with their already-drawn u, so each visit sees the
    // field and the draw the sequential loop would. The tiers decide
    // exactly as libm, so trajectories are bit-identical to it.
    unsigned pending = (1u << count) - 1u;
    while (pending != 0) {
      const util::F64x4 in =
          util::F64x4::set(c[idx[0]], c[idx[1]], c[idx[2]], c[idx[3]]) +
          util::F64x4::set(h[idx[0]], h[idx[1]], h[idx[2]], h[idx[3]]);
      const unsigned neg = util::tanh_sign_neg4(betav * in, uv, pending);
      const unsigned cur = static_cast<unsigned>(m[idx[0]] < 0) |
                           static_cast<unsigned>(m[idx[1]] < 0) << 1 |
                           static_cast<unsigned>(m[idx[2]] < 0) << 2 |
                           static_cast<unsigned>(m[idx[3]] < 0) << 3;
      const unsigned flips = (neg ^ cur) & pending;
      if (flips == 0) break;
      const int lane = std::countr_zero(flips);
      lfs.flip(m, idx[lane]);
      pending &= ~0u << (lane + 1);
    }
  }
}

AnnealResult PBitMachine::anneal(const Schedule& schedule,
                                 const AnnealOptions& options,
                                 util::Xoshiro256pp& rng) const {
  return anneal_from(random_state(rng), schedule, options, rng);
}

AnnealResult PBitMachine::anneal_from(ising::Spins start,
                                      const Schedule& schedule,
                                      const AnnealOptions& options,
                                      util::Xoshiro256pp& rng) const {
  AnnealResult result;
  result.last = std::move(start);
  result.sweeps = options.sweeps;

  ising::LocalFieldState lfs(*model_, adjacency_);
  lfs.reset(result.last);
  if (options.track_best) {
    result.best = result.last;
    result.best_energy = lfs.energy();
  }

  const std::size_t stop_interval =
      options.stop_interval == 0 ? 1 : options.stop_interval;
  std::vector<std::uint32_t> scratch;
  for (std::size_t t = 0; t < options.sweeps; ++t) {
    if (options.stop && t != 0 && t % stop_interval == 0 &&
        options.stop->stop_requested()) {
      result.sweeps = t;  // partial run: sweeps actually performed
      break;
    }
    const double beta = schedule.beta(t, options.sweeps);
    sweep(result.last, lfs, beta, options.order, rng, scratch);
    if (options.track_best && lfs.energy() < result.best_energy) {
      result.best_energy = lfs.energy();
      result.best = result.last;
    }
  }
  result.last_energy = lfs.energy();
  if (!options.track_best) {
    result.best = result.last;
    result.best_energy = result.last_energy;
  }
  return result;
}

void PBitMachine::sample(
    double beta, std::size_t burn_in, std::size_t samples,
    util::Xoshiro256pp& rng,
    const std::function<void(const ising::Spins&)>& observer) const {
  ising::Spins m = random_state(rng);
  ising::LocalFieldState lfs(*model_, adjacency_);
  lfs.reset(m);
  std::vector<std::uint32_t> scratch;
  for (std::size_t t = 0; t < burn_in; ++t) {
    sweep(m, lfs, beta, SweepOrder::kSequential, rng, scratch);
  }
  for (std::size_t t = 0; t < samples; ++t) {
    sweep(m, lfs, beta, SweepOrder::kSequential, rng, scratch);
    observer(m);
  }
}

}  // namespace saim::pbit
