#include "anneal/sqa.hpp"

#include <cmath>
#include <stdexcept>

#include "ising/local_field.hpp"

namespace saim::anneal {

SimulatedQuantumAnnealer::SimulatedQuantumAnnealer(
    const ising::IsingModel& model, SqaOptions options)
    : model_(&model), adjacency_(model), options_(options) {
  if (options_.trotter_slices < 2) {
    throw std::invalid_argument("SQA: need at least 2 Trotter slices");
  }
  if (options_.beta <= 0.0) {
    throw std::invalid_argument("SQA: beta must be positive");
  }
  if (options_.gamma_end <= 0.0 ||
      options_.gamma_start < options_.gamma_end) {
    throw std::invalid_argument(
        "SQA: require 0 < gamma_end <= gamma_start");
  }
}

double SimulatedQuantumAnnealer::perp_coupling(double gamma) const {
  const auto m = static_cast<double>(options_.trotter_slices);
  const double t = std::tanh(options_.beta * gamma / m);
  // tanh > 0 for gamma > 0; J_perp -> infinity as gamma -> 0 (slices lock).
  return -0.5 / options_.beta * std::log(t);
}

RunResult SimulatedQuantumAnnealer::run(util::Xoshiro256pp& rng) const {
  const std::size_t n = model_->n();
  const std::size_t slices = options_.trotter_slices;
  const auto m_d = static_cast<double>(slices);

  std::vector<ising::Spins> state(slices);
  // One incremental engine per Trotter slice; each tracks its slice's
  // *unscaled* classical energy (the readout quantity).
  std::vector<ising::LocalFieldState> fields(slices);
  for (std::size_t k = 0; k < slices; ++k) {
    state[k].resize(n);
    for (auto& s : state[k]) s = rng.bernoulli(0.5) ? 1 : -1;
    fields[k] = ising::LocalFieldState(*model_, adjacency_);
    fields[k].reset(state[k]);
  }

  // Geometric Gamma ramp (standard for SQA; linear works too but wastes
  // sweeps at large Gamma where slices are uncorrelated anyway).
  const double ratio = options_.gamma_end / options_.gamma_start;
  for (std::size_t t = 0; t < options_.sweeps; ++t) {
    const double frac =
        options_.sweeps > 1
            ? static_cast<double>(t) /
                  static_cast<double>(options_.sweeps - 1)
            : 1.0;
    const double gamma = options_.gamma_start * std::pow(ratio, frac);
    const double jperp = perp_coupling(gamma);

    for (std::size_t k = 0; k < slices; ++k) {
      const std::size_t up = (k + 1) % slices;
      const std::size_t down = (k + slices - 1) % slices;
      for (std::size_t i = 0; i < n; ++i) {
        const double classical_in = fields[k].field(i);
        const double classical_delta =
            2.0 * static_cast<double>(state[k][i]) * classical_in / m_d;
        const double quantum_delta =
            2.0 * jperp * static_cast<double>(state[k][i]) *
            (static_cast<double>(state[up][i]) +
             static_cast<double>(state[down][i]));
        const double delta = classical_delta + quantum_delta;
        if (delta <= 0.0 ||
            rng.uniform01() < std::exp(-options_.beta * delta)) {
          // flip() tracks the un-scaled classical energy for readout.
          fields[k].flip(state[k], i);
        }
      }
    }
  }

  // Readout: the lowest-energy slice at the end of the run.
  std::size_t best_k = 0;
  for (std::size_t k = 1; k < slices; ++k) {
    if (fields[k].energy() < fields[best_k].energy()) best_k = k;
  }
  RunResult result;
  result.last = state[best_k];
  result.last_energy = fields[best_k].energy();
  result.sweeps = slices * options_.sweeps;
  return result;
}

SqaBackend::SqaBackend(SqaOptions options) : options_(options) {}

void SqaBackend::bind(const ising::IsingModel& model) {
  sqa_ = std::make_unique<SimulatedQuantumAnnealer>(model, options_);
}

RunResult SqaBackend::run(util::Xoshiro256pp& rng) {
  if (!sqa_) {
    throw std::logic_error("SqaBackend::run called before bind()");
  }
  return sqa_->run(rng);
}

std::vector<RunResult> SqaBackend::run_batch(util::Xoshiro256pp& rng,
                                             std::size_t replicas) {
  if (!sqa_) {
    throw std::logic_error("SqaBackend::run_batch called before bind()");
  }
  return run_replicas_parallel(
      [this](util::Xoshiro256pp& replica_rng) {
        return sqa_->run(replica_rng);
      },
      rng, replicas, batch_threads(), stop_token());
}

}  // namespace saim::anneal
