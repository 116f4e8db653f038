#include "anneal/backend.hpp"

#include <stdexcept>
#include <utility>

#include "util/parallel.hpp"

namespace saim::anneal {

std::vector<RunResult> IsingSolverBackend::run_batch(util::Xoshiro256pp& rng,
                                                     std::size_t replicas) {
  std::vector<RunResult> results;
  results.reserve(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    // Sequential batches stop between runs: what already ran is returned
    // as a partial batch (the caller sees fewer replicas).
    if (r > 0 && stop_token().stop_requested()) break;
    results.push_back(run(rng));
  }
  return results;
}

std::vector<RunResult> run_replicas_parallel(
    const std::function<RunResult(util::Xoshiro256pp&)>& run_one,
    util::Xoshiro256pp& rng, std::size_t replicas, std::size_t threads,
    const util::StopToken& stop) {
  const std::uint64_t base = rng();  // always advance the caller's stream
  if (stop.stop_requested()) return {};
  std::vector<RunResult> results(replicas);
  util::parallel_for(
      replicas,
      [&](std::size_t r) {
        util::Xoshiro256pp replica_rng(util::derive_seed(base, r));
        results[r] = run_one(replica_rng);
      },
      threads);
  return results;
}

PBitBackend::PBitBackend(pbit::Schedule schedule, std::size_t sweeps)
    : schedule_(schedule) {
  options_.sweeps = sweeps;
}

void PBitBackend::bind(const ising::IsingModel& model) {
  machine_ = std::make_unique<pbit::PBitMachine>(model);
}

RunResult PBitBackend::run(util::Xoshiro256pp& rng) {
  if (!machine_) {
    throw std::logic_error("PBitBackend::run called before bind()");
  }
  pbit::AnnealOptions opts = options_;
  opts.stop = &stop_token();  // chunked stop checks inside the anneal loop
  pbit::AnnealResult r = machine_->anneal(schedule_, opts, rng);
  return RunResult{std::move(r.last), r.last_energy, r.sweeps};
}

std::vector<RunResult> PBitBackend::run_batch(util::Xoshiro256pp& rng,
                                              std::size_t replicas) {
  if (!machine_) {
    throw std::logic_error("PBitBackend::run_batch called before bind()");
  }
  pbit::AnnealOptions opts = options_;
  opts.stop = &stop_token();
  return run_replicas_parallel(
      [this, &opts](util::Xoshiro256pp& replica_rng) {
        auto res = machine_->anneal(schedule_, opts, replica_rng);
        return RunResult{std::move(res.last), res.last_energy, res.sweeps};
      },
      rng, replicas, batch_threads(), stop_token());
}

}  // namespace saim::anneal
