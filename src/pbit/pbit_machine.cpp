#include "pbit/pbit_machine.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
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

// Blocks draw their 4 uniform_sym values first, in the order a
// one-spin-at-a-time loop consumes them, and share one decision body. A
// full block reads C[], h[] and the spins contiguously at k; the tail block
// (n mod 4 visits) loads its inputs through util::gather4.
void PBitMachine::sweep(ising::Spins& m, ising::LocalFieldState& lfs,
                        double beta, util::Xoshiro256pp& rng) const {
  const std::size_t size = m.size();
  const double* h = model_->fields().data();
  const double* c = lfs.coupling_inputs().data();
  const std::int8_t* s = m.data();
  const util::F64x4 betav = util::F64x4::broadcast(beta);

  // m_i = sign(tanh(beta*I_i) + U(-1,1)) for a block's pending visits in
  // one masked test; lane l visits spin(l). The first lane whose decision
  // disagrees with its spin flips; only the later lanes are then
  // re-decided, against the updated C[] and with their already-drawn u, so
  // each visit sees the field and the draw the sequential loop would. The
  // bracket decides exactly as libm, so trajectories are bit-identical.
  const auto decide = [&](auto inputs, auto spin, util::F64x4 u,
                          unsigned pending) {
    while (pending != 0) {
      const unsigned neg = util::tanh_sign_neg4(betav * inputs(), u, pending);
      unsigned cur = 0;
      for (unsigned l = 0; l < 4; ++l) {
        cur |= static_cast<unsigned>(s[spin(l)] < 0) << l;
      }
      const unsigned flips = (neg ^ cur) & pending;
      if (flips == 0) return;
      const auto lane = static_cast<unsigned>(std::countr_zero(flips));
      lfs.flip(m, spin(lane));
      pending &= ~0u << (lane + 1);
    }
  };

  for (std::size_t k = 0; k < size; k += 4) {
    const std::size_t count = std::min<std::size_t>(4, size - k);
    if (count == 4) {
      const double u0 = rng.uniform_sym();
      const double u1 = rng.uniform_sym();
      const double u2 = rng.uniform_sym();
      const double u3 = rng.uniform_sym();
      const util::F64x4 hv = util::F64x4::load(h + k);
      decide([&] { return util::F64x4::load(c + k) + hv; },
             [k](unsigned lane) { return k + lane; },
             util::F64x4::set(u0, u1, u2, u3), 0xFu);
      continue;
    }
    // Unused lanes point at spin 0 and stay out of the pending mask.
    std::int32_t idx[4] = {0, 0, 0, 0};
    double u[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t l = 0; l < count; ++l) {
      idx[l] = static_cast<std::int32_t>(k + l);
      u[l] = rng.uniform_sym();
    }
    const util::F64x4 hv = util::gather4(h, idx);
    decide([&] { return util::gather4(c, idx) + hv; },
           [&](unsigned lane) { return static_cast<std::size_t>(idx[lane]); },
           util::F64x4::load(u), (1u << count) - 1u);
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
  for (std::size_t t = 0; t < options.sweeps; ++t) {
    if (options.stop && t != 0 && t % stop_interval == 0 &&
        options.stop->stop_requested()) {
      result.sweeps = t;  // partial run: sweeps actually performed
      break;
    }
    const double beta = schedule.beta(t, options.sweeps);
    sweep(result.last, lfs, beta, rng);
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
  for (std::size_t t = 0; t < burn_in; ++t) sweep(m, lfs, beta, rng);
  for (std::size_t t = 0; t < samples; ++t) {
    sweep(m, lfs, beta, rng);
    observer(m);
  }
}

}  // namespace saim::pbit
