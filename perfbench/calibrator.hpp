// The benchmark's host-speed probe, timed by perfbench_algo1 between
// windows of steps.
#pragma once

#include <time.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Fixed reference work, independent of the library: incremental
/// local-field Gibbs sweeps over a dense random 256-spin model kept in
/// CSR form, the shape of work and memory of the p-bit engine (a field
/// read, a random draw, and an indexed row update per flip). The host's
/// speed drifts by 20-30% over minutes; chunks timed next to the
/// benchmark's work measure that drift, so run.py can scale times to one
/// reference speed. Its inputs never change, so no change to the library
/// can move it.
class Calibrator {
 public:
  Calibrator()
      : index_(kSpins * kSpins), weight_(kSpins * kSpins), h_(kSpins),
        c_(kSpins), s_(kSpins) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::size_t e = 0; e < index_.size(); ++e) {
      index_[e] = static_cast<std::uint32_t>(e % kSpins);
      weight_[e] = uniform(x) - 0.5;
    }
    for (double& v : h_) v = uniform(x) - 0.5;
    for (double& v : s_) v = uniform(x) < 0.5 ? 1.0 : -1.0;
    for (std::size_t e = 0; e < index_.size(); ++e) {
      c_[e / kSpins] += weight_[e] * s_[index_[e]];
    }
  }

  /// Runs one chunk; returns its wall time in milliseconds.
  double chunk() {
    const auto t0 = Clock::now();
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      for (std::size_t i = 0; i < kSpins; ++i) {
        if (s_[i] * (c_[i] + h_[i]) < kNoise * (uniform(rng_) - 0.5)) {
          s_[i] = -s_[i];
          const double delta = 2.0 * s_[i];
          for (std::size_t e = i * kSpins; e < (i + 1) * kSpins; ++e) {
            c_[index_[e]] += delta * weight_[e];
          }
        }
      }
    }
    return ms_since(t0);
  }

 private:
  static constexpr std::size_t kSpins = 256;
  static constexpr int kSweeps = 20;
  static constexpr double kNoise = 8.0;

  static double uniform(std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  }

  std::vector<std::uint32_t> index_;
  std::vector<double> weight_, h_, c_, s_;
  std::uint64_t rng_ = 0x2545f4914f6cdd1dULL;
};

}  // namespace perfbench
