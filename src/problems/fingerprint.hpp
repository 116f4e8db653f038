// Canonical 64-bit fingerprints of problem instances.
//
// The solve service keys its result cache on *content*, not on object
// identity: two ConstrainedProblems built independently from the same
// instance file hash to the same value, so a job stream that re-reads
// instances from disk still hits the cache.
// Every quantity that influences a solve's output is mixed in — variable
// counts, the QUBO objective (offset, linear terms, nonzero couplings with
// their indices), and each constraint row — in a fixed traversal order, so
// the fingerprint is deterministic across processes and platforms with
// identical IEEE-754 doubles.
//
// Fingerprint is the streaming hasher behind it (SplitMix64-style avalanche
// over a running state). It is exposed so higher layers can extend a
// problem fingerprint with solve parameters (backend name, SaimOptions,
// seed) without inventing a second hashing scheme; see
// service::request_fingerprint.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

#include "problems/constrained_problem.hpp"

namespace saim::problems {

class Fingerprint {
 public:
  Fingerprint& mix(std::uint64_t v) noexcept {
    state_ = avalanche(state_ + kGolden + v);
    return *this;
  }

  Fingerprint& mix(double v) noexcept {
    // Collapse +0.0 / -0.0 so arithmetically identical problems agree.
    return mix(v == 0.0 ? std::uint64_t{0} : std::bit_cast<std::uint64_t>(v));
  }

  Fingerprint& mix(std::string_view s) noexcept {
    mix(static_cast<std::uint64_t>(s.size()));
    // Pack 8 bytes per mix; the tail is zero-padded (length is already in).
    std::uint64_t word = 0;
    unsigned filled = 0;
    for (const char c : s) {
      word |= static_cast<std::uint64_t>(static_cast<unsigned char>(c))
              << (8 * filled);
      if (++filled == 8) {
        mix(word);
        word = 0;
        filled = 0;
      }
    }
    if (filled != 0) mix(word);
    return *this;
  }

  [[nodiscard]] std::uint64_t digest() const noexcept {
    return avalanche(state_);
  }

 private:
  static constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

  static constexpr std::uint64_t avalanche(std::uint64_t z) noexcept {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t state_ = 0x5a1350b6a2d9c0deULL;
};

/// Content fingerprint of a normalized problem: sizes, objective (offset,
/// linear, sparse couplings), and every constraint row.
[[nodiscard]] std::uint64_t fingerprint(const ConstrainedProblem& problem);

}  // namespace saim::problems
