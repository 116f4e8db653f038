#include "anneal/exact_backend.hpp"

#include <stdexcept>

namespace saim::anneal {

void ExactBackend::bind(const ising::IsingModel& model) {
  if (model.n() > 26) {
    throw std::invalid_argument(
        "ExactBackend: model too large for enumeration (n > 26)");
  }
  model_ = &model;
}

RunResult ExactBackend::run(util::Xoshiro256pp& rng) {
  (void)rng;
  if (model_ == nullptr) {
    throw std::logic_error("ExactBackend::run called before bind()");
  }
  const std::size_t n = model_->n();
  RunResult result;

  // Gray-code enumeration: consecutive codes differ in one spin, so the
  // energy is maintained incrementally with flip_delta — O(2^n * n)
  // instead of O(2^n * n^2). Float drift over 2^n additions is bounded by
  // the deltas' magnitudes; energies are re-derived exactly for the winner.
  ising::Spins m(n, std::int8_t{-1});  // Gray code 0 = all -1
  double energy = model_->energy(m);
  result.last = m;
  double ground_energy = energy;
  for (std::uint64_t code = 1; code < (1ULL << n); ++code) {
    const auto bit = static_cast<std::size_t>(__builtin_ctzll(code));
    energy += model_->flip_delta(m, bit);
    m[bit] = static_cast<std::int8_t>(-m[bit]);
    if (energy < ground_energy) {
      ground_energy = energy;
      result.last = m;
    }
  }
  result.last_energy = model_->energy(result.last);  // exact re-derivation
  result.sweeps = sweeps_per_run();
  return result;
}

std::size_t ExactBackend::sweeps_per_run() const {
  if (model_ == nullptr || model_->n() == 0) return 0;
  return static_cast<std::size_t>((1ULL << model_->n()) / model_->n());
}

}  // namespace saim::anneal
