// Glue between the backend layer and the bit-sliced sweep engine.
//
// A backend that dispatches a replica batch to ising::BitSliceEngine must
// hand each lane exactly what the scalar replica would have seen: the
// stream Xoshiro256pp(derive_seed(base, r)) positioned after the
// initial-state draws, the warm seed (if any) for replica r and the
// run-start energy. make_slice_lanes builds those lanes; run_slice_lanes
// runs them in one engine dispatch and converts the results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "anneal/run_result.hpp"
#include "ising/bitslice.hpp"
#include "ising/ising_model.hpp"
#include "pbit/schedule.hpp"

namespace saim::anneal {

/// Replica batches at or above this size go through the bit-sliced engine
/// (when the backend's configuration allows it — see the backends'
/// run_batch). Below it the per-batch packing overhead outweighs the
/// word-parallel sweeps; results are bit-identical either way, so the
/// threshold is pure performance policy.
inline constexpr std::size_t kBitsliceMinReplicas = 32;

/// Builds the lanes for `replicas` replicas of `model` exactly as the
/// scalar run_batch contract: lane r runs Xoshiro256pp(derive_seed(base,
/// r)); warm lanes start from seeds[r] with an untouched stream, cold
/// lanes draw their ±1 start from it (PBitMachine::random_state order);
/// energies are the dense model.energy of the start state, matching
/// LocalFieldState::reset.
std::vector<ising::SliceLane> make_slice_lanes(
    const ising::IsingModel& model, std::uint64_t base, std::size_t replicas,
    const std::vector<ising::Spins>& seeds);

/// betas[t] = schedule.beta(t, sweeps) — the exact doubles the scalar
/// anneal loop would compute.
std::vector<double> make_beta_table(const pbit::Schedule& schedule,
                                    std::size_t sweeps);

/// Runs `lanes` through one BitSliceEngine dispatch over `adjacency` and
/// returns one RunResult per lane, in lane order. `options` (betas,
/// fields, dynamics, track_best, stop, threads) are the caller's.
std::vector<RunResult> run_slice_lanes(const ising::Adjacency& adjacency,
                                       std::span<ising::SliceLane> lanes,
                                       const ising::SliceOptions& options);

}  // namespace saim::anneal
