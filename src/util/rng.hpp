// Deterministic, fast pseudo-random number generation for Monte-Carlo spin
// dynamics. The hot loop of a p-bit sweep draws one uniform per spin per
// Monte-Carlo sweep, so the generator must be cheap (a few ns), splittable
// (independent streams per replica/run) and reproducible across platforms.
//
// We implement xoshiro256++ (Blackman & Vigna) seeded through SplitMix64,
// the combination recommended by the authors: SplitMix64 decorrelates
// low-entropy user seeds (0, 1, 2, ...) before they reach the xoshiro state.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace saim::util {

/// SplitMix64: tiny 64-bit generator used to expand user seeds into
/// full-entropy xoshiro state. Also usable standalone for hashing.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ — 256-bit state, period 2^256-1, passes BigCrush.
/// Satisfies UniformRandomBitGenerator so it can also feed <random>.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  /// Seeds via SplitMix64 so that consecutive seeds give uncorrelated streams.
  explicit Xoshiro256pp(std::uint64_t seed = 0x5eed5a1a5eed5a1aULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [-1, 1) — the p-bit noise term rand(-1,1) of eq. (10).
  double uniform_sym() noexcept { return 2.0 * uniform01() - 1.0; }

  /// Uniform integer in [0, n) without modulo bias (Lemire's method).
  std::uint64_t below(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept;

  /// Bernoulli draw with probability p in [0,1].
  bool bernoulli(double p) noexcept { return uniform01() < p; }

  /// Jump function: advances 2^128 steps; use to derive parallel streams
  /// from one seed when explicit reseeding is not desired.
  void jump() noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Derives a child seed from (master, stream-id). Used so that every SA run,
/// replica, or GA population gets an independent deterministic stream.
std::uint64_t derive_seed(std::uint64_t master, std::uint64_t stream) noexcept;

}  // namespace saim::util
