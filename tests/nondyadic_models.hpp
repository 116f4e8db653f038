// Non-dyadic Ising models for the bit-pin tests of the run-start kernels
// (Adjacency::coupling_inputs, IsingModel::energy). On dyadic models every
// summation order is exact, so only models like these can catch a kernel
// that reorders a sum.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ising/ising_model.hpp"
#include "lagrange/lagrangian_model.hpp"
#include "problems/qkp.hpp"
#include "util/rng.hpp"

namespace saim::testing_models {

/// Every size the kernels treat differently: empty and tiny models, each
/// remainder of the 4-lane blocks and of the 8-row energy blocks, a
/// diagonal inside every lane position, and one size past the QKP-200
/// Lagrangian's.
inline std::vector<std::size_t> pin_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 17; ++n) sizes.push_back(n);
  sizes.push_back(31);
  sizes.push_back(213);
  return sizes;
}

/// Each pair coupled with probability `fill` by a uniform real in (-1, 1);
/// uniform real fields and offset.
inline ising::IsingModel random_real_model(std::size_t n, double fill,
                                           std::uint64_t seed) {
  ising::IsingModel model(n);
  util::Xoshiro256pp rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (fill >= 1.0 || rng.uniform01() < fill) {
        model.add_coupling(i, j, rng.uniform_sym());
      }
    }
    model.add_field(i, rng.uniform_sym() * 3.0);
  }
  model.add_offset(rng.uniform_sym());
  return model;
}

/// Runs of five complete rows (degree n-1) between pairs of sparser rows:
/// row i is complete unless i % 7 >= 5. Two sparse rows are coupled with
/// probability 0.3, except the two rows of a pair, which never are, so a
/// sparse row with a partner is never complete.
inline ising::IsingModel mixed_rows_model(std::size_t n, std::uint64_t seed) {
  ising::IsingModel model(n);
  util::Xoshiro256pp rng(seed);
  const auto complete = [](std::size_t i) { return i % 7 < 5; };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool pair = !complete(i) && j == i + 1;
      if (complete(i) || complete(j) || (!pair && rng.uniform01() < 0.3)) {
        model.add_coupling(i, j, rng.uniform_sym());
      }
    }
    model.add_field(i, rng.uniform_sym() * 3.0);
  }
  return model;
}

/// The Ising image of the Lagrangian of make_paper_qkp(items, d, index) at
/// a non-zero lambda: complete rows, couplings normalized by the capacity.
inline ising::IsingModel qkp_lagrangian(std::size_t items, int density,
                                        int index) {
  const auto inst = problems::make_paper_qkp(items, density, index);
  const auto mapping = problems::qkp_to_problem(inst);
  lagrange::LagrangianModel model(mapping.problem, 2.0);
  const std::vector<double> lambda(mapping.problem.num_constraints(), 0.37);
  model.set_lambda(lambda);
  return model.ising();
}

inline ising::Spins random_spins(std::size_t n, util::Xoshiro256pp& rng) {
  ising::Spins m(n);
  for (auto& s : m) s = rng.bernoulli(0.5) ? 1 : -1;
  return m;
}

}  // namespace saim::testing_models
