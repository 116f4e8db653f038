#include "anneal/slice_driver.hpp"

#include <utility>

#include "util/rng.hpp"

namespace saim::anneal {

std::vector<ising::SliceLane> make_slice_lanes(
    const ising::IsingModel& model, std::uint64_t base, std::size_t replicas,
    const std::vector<ising::Spins>& seeds) {
  const std::size_t n = model.n();
  std::vector<ising::SliceLane> lanes(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    util::Xoshiro256pp lane_rng(util::derive_seed(base, r));
    ising::SliceLane& lane = lanes[r];
    if (r < seeds.size() && seeds[r].size() == n) {
      lane.spins = seeds[r];  // warm lane: stream stays at its start
    } else {
      lane.spins.resize(n);
      for (auto& s : lane.spins) {
        s = lane_rng.bernoulli(0.5) ? std::int8_t{1} : std::int8_t{-1};
      }
    }
    lane.energy = model.energy(lane.spins);
    lane.rng = lane_rng.state();
  }
  return lanes;
}

std::vector<double> make_beta_table(const pbit::Schedule& schedule,
                                    std::size_t sweeps) {
  std::vector<double> betas(sweeps);
  for (std::size_t t = 0; t < sweeps; ++t) {
    betas[t] = schedule.beta(t, sweeps);
  }
  return betas;
}

std::vector<RunResult> run_slice_lanes(const ising::Adjacency& adjacency,
                                       std::span<ising::SliceLane> lanes,
                                       const ising::SliceOptions& options) {
  const ising::BitSliceEngine engine(adjacency);
  std::vector<ising::SliceResult> res = engine.run(lanes, options);
  std::vector<RunResult> runs;
  runs.reserve(res.size());
  for (ising::SliceResult& s : res) {
    runs.push_back(RunResult{std::move(s.last), s.last_energy,
                             std::move(s.best), s.best_energy, s.sweeps});
  }
  return runs;
}

}  // namespace saim::anneal
