#include "anneal/simulated_annealing.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "ising/local_field.hpp"
#include "util/accept_bounds.hpp"

namespace saim::anneal {

MetropolisSa::MetropolisSa(const ising::IsingModel& model)
    : model_(&model), adjacency_(model) {}

RunResult MetropolisSa::run(const pbit::Schedule& schedule,
                            const SaOptions& options,
                            util::Xoshiro256pp& rng) const {
  ising::Spins start(model_->n());
  for (auto& s : start) {
    s = rng.bernoulli(0.5) ? std::int8_t{1} : std::int8_t{-1};
  }
  return run_from(std::move(start), schedule, options, rng);
}

RunResult MetropolisSa::run_from(ising::Spins start,
                                 const pbit::Schedule& schedule,
                                 const SaOptions& options,
                                 util::Xoshiro256pp& rng) const {
  RunResult result;
  result.last = std::move(start);
  result.sweeps = options.sweeps;

  const std::size_t n = model_->n();
  ising::LocalFieldState lfs(*model_, adjacency_);
  lfs.reset(result.last);
  result.best = result.last;
  result.best_energy = lfs.energy();

  for (std::size_t t = 0; t < options.sweeps; ++t) {
    if (options.stop && t != 0 && t % util::kStopPollInterval == 0 &&
        options.stop->stop_requested()) {
      result.sweeps = t;  // partial run: sweeps actually performed
      break;
    }
    const double beta = schedule.beta(t, options.sweeps);
    for (std::size_t i = 0; i < n; ++i) {
      const double delta = lfs.flip_delta(result.last, i);
      // Tiered acceptance: bit-identical to u < std::exp(-beta*delta) but
      // ~all visits decide from u's exponent / the exp bounds without a
      // libm call. The short-circuit keeps the RNG stream unchanged: a
      // draw happens only when delta > 0.
      if (delta <= 0.0 ||
          util::exp_accept(rng.uniform01(), -beta * delta)) {
        lfs.flip(result.last, i);
      }
    }
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

MetropolisSaBackend::MetropolisSaBackend(pbit::Schedule schedule,
                                         std::size_t sweeps, bool track_best)
    : schedule_(schedule) {
  options_.sweeps = sweeps;
  options_.track_best = track_best;
}

void MetropolisSaBackend::bind(const ising::IsingModel& model) {
  sa_ = std::make_unique<MetropolisSa>(model);
}

RunResult MetropolisSaBackend::run(util::Xoshiro256pp& rng) {
  if (!sa_) {
    throw std::logic_error("MetropolisSaBackend::run called before bind()");
  }
  SaOptions opts = options_;
  opts.stop = &stop_token();  // between-sweep stop polls
  return sa_->run(schedule_, opts, rng);
}

std::vector<RunResult> MetropolisSaBackend::run_batch(
    util::Xoshiro256pp& rng, std::size_t replicas) {
  if (!sa_) {
    throw std::logic_error(
        "MetropolisSaBackend::run_batch called before bind()");
  }
  SaOptions opts = options_;
  opts.stop = &stop_token();
  return run_replicas_parallel(
      [this, &opts](util::Xoshiro256pp& replica_rng) {
        return sa_->run(schedule_, opts, replica_rng);
      },
      rng, replicas, batch_threads(), stop_token());
}

}  // namespace saim::anneal
