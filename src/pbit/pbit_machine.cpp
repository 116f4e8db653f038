#include "pbit/pbit_machine.hpp"

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
// full block reads C[], h[] and its spin signs contiguously at k; the tail
// block (n mod 4 visits) loads its inputs through util::gather4. Full
// blocks go in pairs, so that two quiet blocks cost one test.
void PBitMachine::sweep(ising::Spins& m, ising::LocalFieldState& lfs,
                        double beta, util::Xoshiro256pp& rng) const {
  const std::size_t size = m.size();
  const double* h = model_->fields().data();
  const double* c = lfs.coupling_inputs().data();
  const std::int8_t* s = m.data();
  const util::F64x4 betav = util::F64x4::broadcast(beta);

  // m_i = sign(tanh(beta*I_i) + U(-1,1)) for a block's pending visits at
  // once; lane l visits spin(l), and bit l of negs() says its spin is -1.
  // When every pending lane is saturated (|beta*I| >= 8 and a draw inside
  // 1 - 2^-21, util::tanh_saturated4) the decisions are the signs of
  // beta*I; otherwise one masked bracket test (util::tanh_sign_neg4)
  // decides them. Either way each decision is libm's. The first lane whose
  // decision disagrees with its spin flips; only the later lanes are then
  // re-decided, against the updated C[] and with their already-drawn u, so
  // each visit sees the field and the draw the sequential loop would, and
  // trajectories are bit-identical to it.
  const auto decide = [&](auto inputs, auto spin, auto negs, util::F64x4 u,
                          unsigned pending) {
    while (pending != 0) {
      const util::F64x4 x = betav * inputs();
      const unsigned neg =
          (util::tanh_saturated4(x, u) & pending) == pending
              ? static_cast<unsigned>(util::movemask(x))
              : util::tanh_sign_neg4(x, u, pending);
      const unsigned flips = (neg ^ negs()) & pending;
      if (flips == 0) return;
      const auto lane = static_cast<unsigned>(std::countr_zero(flips));
      lfs.flip(m, spin(lane));
      pending &= ~0u << (lane + 1);
    }
  };

  // A full block at k, given its four draws.
  const auto full_block = [&](std::size_t k, util::F64x4 u) {
    const util::F64x4 hv = util::F64x4::load(h + k);
    decide([&] { return util::F64x4::load(c + k) + hv; },
           [k](unsigned lane) { return k + lane; },
           [&] { return util::sign_mask4(s + k); }, u, 0xFu);
  };
  // True when a full block at k keeps all four spins by the shortcut:
  // every lane saturated and the signs of beta*I already the spins'.
  const auto quiet = [&](std::size_t k, util::F64x4 u) {
    const util::F64x4 x =
        betav * (util::F64x4::load(c + k) + util::F64x4::load(h + k));
    return util::tanh_saturated4(x, u) == 0xFu &&
           static_cast<unsigned>(util::movemask(x)) == util::sign_mask4(s + k);
  };
  const auto draw4 = [&] {
    const double u0 = rng.uniform_sym();
    const double u1 = rng.uniform_sym();
    const double u2 = rng.uniform_sym();
    const double u3 = rng.uniform_sym();
    return util::F64x4::set(u0, u1, u2, u3);
  };

  // Eight visits a step: two quiet blocks in a row are skipped at once,
  // and any other pair is decided block by block.
  std::size_t k = 0;
  for (; k + 8 <= size; k += 8) {
    const util::F64x4 ua = draw4();
    const util::F64x4 ub = draw4();
    if (quiet(k, ua) && quiet(k + 4, ub)) continue;
    full_block(k, ua);
    full_block(k + 4, ub);
  }
  if (k + 4 <= size) {
    full_block(k, draw4());
    k += 4;
  }
  if (k == size) return;
  // The tail block: unused lanes point at spin 0 and stay out of the
  // pending mask.
  const std::size_t count = size - k;
  std::int32_t idx[4] = {0, 0, 0, 0};
  double u[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t l = 0; l < count; ++l) {
    idx[l] = static_cast<std::int32_t>(k + l);
    u[l] = rng.uniform_sym();
  }
  const util::F64x4 hv = util::gather4(h, idx);
  decide([&] { return util::gather4(c, idx) + hv; },
         [&](unsigned lane) { return static_cast<std::size_t>(idx[lane]); },
         [&] {
           unsigned neg = 0;
           for (unsigned l = 0; l < 4; ++l) {
             neg |= static_cast<unsigned>(s[idx[l]] < 0) << l;
           }
           return neg;
         },
         util::F64x4::load(u), (1u << count) - 1u);
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
  }
  result.last_energy = lfs.energy();
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
