// Named construction of inner-solver backends for the service layer.
//
// A SolveRequest travels as data (over the job queue, or parsed from a
// JSONL line by tools/saim_serve), so the backend it wants must be named,
// not held as a live object: a worker builds a backend from this spec the
// first time it meets a (problem, spec, penalty) key, binds it, and keeps
// it for that key. Backends are stateful (bound model, pending initial
// states), so each one belongs to one worker and never serves two
// solves at once.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "anneal/backend.hpp"

namespace saim::service {

struct BackendSpec {
  /// One of: "pbit", "metropolis-sa", "parallel-tempering", "sqa", "tabu".
  std::string name = "pbit";
  /// MCS per inner run (tabu: single-flip steps; PT: sweeps per replica).
  std::size_t sweeps = 1000;
  /// Annealing endpoint for the linear beta ramp (pbit / metropolis-sa)
  /// and the cold end of the PT ladder.
  double beta_max = 10.0;
};

/// Builds an unbound backend from its spec. Throws std::invalid_argument
/// (naming the offending backend) on an unknown name.
std::unique_ptr<anneal::IsingSolverBackend> make_backend(
    const BackendSpec& spec);

/// Names make_backend accepts, for error messages and --help text.
[[nodiscard]] std::vector<std::string> known_backends();

}  // namespace saim::service
