// Conservative bounds on libm exp/tanh for branch-free acceptance tests.
//
// The Monte-Carlo sweep engines spend most of a visit in one transcendental:
// Metropolis compares a uniform against exp(-beta*dH), the p-bit machine
// signs tanh(beta*I) + U(-1,1). Both are *comparisons*, not value uses — so
// a cheap interval [lo, hi] guaranteed to contain the libm result decides
// almost every visit without calling libm at all:
//
//   u <  lo  =>  u <  exp(arg)   (accept, certain)
//   u >= hi  =>  u >= exp(arg)   (reject, certain)
//   otherwise    call std::exp and decide exactly (rare: the interval is
//                ~4e-5 wide relative, so the ambiguous band is hit on the
//                order of 0.001% of visits)
//
// Decisions are therefore bit-identical to calling libm on every visit —
// the property tests/simd_shim_test.cpp and the golden trajectories pin —
// while the hot path runs ~10 cheap fp ops instead of an exp/tanh call per
// 4 lanes.
//
// Construction (all margins deliberately loose; verified empirically over
// millions of points by tests/simd_shim_test.cpp):
//   exp(a) = 2^r, r = a*log2(e). k = floor(r), f = r-k (exact), and a
//   degree-6 Taylor of e^(f ln2) underestimates 2^f with relative
//   remainder <= ln2^7/5040 * 2 < 3.1e-5. 2^k is assembled exactly with
//   the (k+1023)<<52 bit trick. Upper slack 4e-5 covers the remainder +
//   every rounding (poly Horner, exponent product, libm's own <=1 ulp);
//   lower slack 1e-9 covers the roundings alone. |r| > 970 falls into
//   saturated branches. The bounds hold for BOTH the true value and the
//   libm double, so they compose: tanh bounds map exp(2x) bounds through
//   the monotone (e-1)/(e+1), widened by an absolute pad for the division
//   rounding and libm tanh's ~2 ulp, with |x| >= 8 saturated.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/simd.hpp"

namespace saim::util {

struct BoundsF64x4 {
  F64x4 lo, hi;
};

namespace accept_detail {
inline constexpr double kLog2e = 1.4426950408889634074;  // log2(e)
inline constexpr double kLn2 = 0.6931471805599453094;    // ln 2
inline constexpr double kExpLowerSlack = 1.0 - 1e-9;
inline constexpr double kExpUpperSlack = 1.0 + 4e-5;
inline constexpr double kRangeLimit = 970.0;
inline constexpr double kTinyHi = 0x1.0p-900;
inline constexpr double kBigLo = 0x1.0p900;
inline constexpr double kTanhPad = 1e-12;
// Saturation: for |x| >= 8, 1 - |tanh(x)| < 2 e^-16 = 2.26e-7, and libm
// adds at most a few 1e-16; the band 2^-21 = 4.77e-7 covers both twice
// over. So |tanh(x)| >= kTanhSatLo there, and sign(tanh(x) + u) is
// sign(x) for every |u| < kTanhSatLo. On the annealed QKP-200 Lagrangians
// this tier decides ~90-99% of visits past the first fifth of the ramp.
inline constexpr double kTanhSat = 8.0;
inline constexpr double kTanhSatLo = 1.0 - 0x1.0p-21;
// Tier-1 exponent trick (see exp_accept): with r = arg*log2(e), log2(u)
// lies in [e, e+1) for biased exponent be = e + 1023, so be < r + 1022
// accepts and be >= r + 1023 rejects; the 1e-9 margin dwarfs the rounding
// error in r (< 1e-12 for |arg| < 750).
inline constexpr double kTier1Accept = 1022.0 - 1e-9;
inline constexpr double kTier1Reject = 1023.0 + 1e-9;
}  // namespace accept_detail

/// Per-lane [lo, hi] with lo <= std::exp(a) <= hi (and the true exp too).
inline BoundsF64x4 exp_bounds(F64x4 a) noexcept {
  using namespace accept_detail;
  const F64x4 r = a * F64x4::broadcast(kLog2e);
  const F64x4 limit = F64x4::broadcast(kRangeLimit);
  const F64x4 tiny = cmp_lt(r, F64x4::zero() - limit);
  const F64x4 big = cmp_lt(limit, r);
  const F64x4 rc = fmin4(fmax4(r, F64x4::zero() - limit), limit);

  const F64x4 k = floor4(rc);
  const F64x4 f = rc - k;  // exact: k = floor(rc)
  const F64x4 x = f * F64x4::broadcast(kLn2);

  // Degree-6 Taylor of e^x, x in [0, ln2): underestimates the true value.
  F64x4 p = F64x4::broadcast(1.0 / 720.0);
  p = p * x + F64x4::broadcast(1.0 / 120.0);
  p = p * x + F64x4::broadcast(1.0 / 24.0);
  p = p * x + F64x4::broadcast(1.0 / 6.0);
  p = p * x + F64x4::broadcast(0.5);
  p = p * x + F64x4::broadcast(1.0);
  p = p * x + F64x4::broadcast(1.0);

  // 2^k exactly: (k + 1023) placed in the exponent field. k in
  // [-970, 970], so k + 1023 + 2^52 is an exact integer-valued double
  // whose low mantissa bits are k + 1023.
  const F64x4 biased =
      (k + F64x4::broadcast(1023.0)) + F64x4::broadcast(0x1.0p52);
  const F64x4 pow2k = bitcast_f64(shl<52>(bitcast_u64(biased)));

  const F64x4 base = p * pow2k;
  F64x4 lo = base * F64x4::broadcast(kExpLowerSlack);
  F64x4 hi = base * F64x4::broadcast(kExpUpperSlack);

  lo = select(tiny, F64x4::zero(), lo);
  hi = select(tiny, F64x4::broadcast(kTinyHi), hi);
  lo = select(big, F64x4::broadcast(kBigLo), lo);
  hi = select(big, F64x4::broadcast(
                       std::numeric_limits<double>::infinity()),
              hi);
  return {lo, hi};
}

/// Scalar tiered Metropolis acceptance: decides u < std::exp(arg)
/// bit-identically to calling libm on every draw. Tier 1 reads u's binary
/// exponent against r = arg*log2(e) and decides ~all draws; tier 2
/// consults exp_bounds; only the ambiguous band reaches std::exp.
/// `u` must be a uniform01 draw (0 or a normal in [2^-53, 1)).
inline bool exp_accept(double u, double arg) noexcept {
  using namespace accept_detail;
  if (u >= 0x1.0p-53) {  // a u == 0 draw carries no exponent information
    const double r = arg * kLog2e;
    const double be =
        static_cast<double>(std::bit_cast<std::uint64_t>(u) >> 52);
    if (be < r + kTier1Accept) return true;
    if (be >= r + kTier1Reject) return false;
  }
  const BoundsF64x4 eb = exp_bounds(F64x4::broadcast(arg));
  double lo[4], hi[4];
  eb.lo.store(lo);
  eb.hi.store(hi);
  if (u < lo[0]) return true;
  if (u >= hi[0]) return false;
  return u < std::exp(arg);
}

/// Per-lane [lo, hi] with lo <= std::tanh(x) <= hi.
inline BoundsF64x4 tanh_bounds(F64x4 x) noexcept {
  using namespace accept_detail;
  const F64x4 sat = F64x4::broadcast(kTanhSat);
  const F64x4 sat_pos = cmp_ge(x, sat);
  const F64x4 sat_neg = cmp_le(x, F64x4::zero() - sat);

  const BoundsF64x4 e2 = exp_bounds(x + x);  // bounds on e^(2x)
  const F64x4 one = F64x4::broadcast(1.0);
  const F64x4 pad = F64x4::broadcast(kTanhPad);
  F64x4 lo = (e2.lo - one) / (e2.lo + one) - pad;
  F64x4 hi = (e2.hi - one) / (e2.hi + one) + pad;

  lo = select(sat_pos, F64x4::broadcast(kTanhSatLo), lo);
  hi = select(sat_pos, one, hi);
  lo = select(sat_neg, F64x4::zero() - one, lo);
  hi = select(sat_neg, F64x4::zero() - F64x4::broadcast(kTanhSatLo), hi);
  return {lo, hi};
}

/// 4-lane tiered p-bit test: bit l of the result is set iff
/// std::tanh(x_l) + u_l < 0 (the p-bit settles at -1), for the lanes in
/// `active`; inactive lanes read 0 and never reach libm. The p-bit sweep
/// (pbit/pbit_machine.cpp) decides four visits at a time with it.
///   * Saturation tier, when every active lane has |x| >= 8: |tanh(x)| is
///     within 2^-21 of 1, so the sign of x decides unless |u| >= 1 - 2^-21.
///   * Bounds tier otherwise: tanh_bounds decides ~all lanes.
/// Lanes left ambiguous by either tier call std::tanh, so every decision
/// equals the libm one. `u` lanes are uniform_sym draws in [-1, 1).
inline unsigned tanh_sign_neg4(F64x4 x, F64x4 u, unsigned active) noexcept {
  using namespace accept_detail;
  const F64x4 zero = F64x4::zero();
  const F64x4 signbit = F64x4::broadcast(-0.0);
  const F64x4 absx = mask_andnot(signbit, x);
  const auto sat = static_cast<unsigned>(
      movemask(cmp_ge(absx, F64x4::broadcast(kTanhSat))));
  unsigned neg;
  unsigned amb;
  if ((sat & active) == active) {
    neg = static_cast<unsigned>(movemask(cmp_lt(x, zero)));
    const F64x4 absu = mask_andnot(signbit, u);
    amb = static_cast<unsigned>(
        movemask(cmp_ge(absu, F64x4::broadcast(kTanhSatLo))));
  } else {
    const BoundsF64x4 tb = tanh_bounds(x);
    neg = static_cast<unsigned>(movemask(cmp_lt(tb.hi + u, zero)));
    const unsigned pos =
        static_cast<unsigned>(movemask(cmp_ge(tb.lo + u, zero)));
    amb = ~(neg | pos);
  }
  neg &= active;
  amb &= active;
  if (amb != 0) {
    double xs[4], us[4];
    x.store(xs);
    u.store(us);
    for (unsigned l = 0; l < 4; ++l) {
      if (((amb >> l) & 1u) != 0) {
        const bool lane_neg = std::tanh(xs[l]) + us[l] < 0.0;
        neg = (neg & ~(1u << l)) | (static_cast<unsigned>(lane_neg) << l);
      }
    }
  }
  return neg;
}

/// Scalar tiered p-bit sign test: decides tanh(x) + u >= 0 bit-identically
/// to calling std::tanh on every draw — one lane of the tiers above, kept
/// as an independent scalar reference. Saturation tier for |x| >= 8 (the
/// draw decides only inside the 2^-21 band next to ±1), tanh_bounds tier
/// otherwise; ambiguous draws reach libm. `u` is a uniform_sym draw in
/// [-1, 1).
inline bool tanh_sign_nonneg(double x, double u) noexcept {
  using namespace accept_detail;
  if (x >= kTanhSat || x <= -kTanhSat) {
    if (std::abs(u) < kTanhSatLo) return x >= 0.0;
    return std::tanh(x) + u >= 0.0;
  }
  const BoundsF64x4 tb = tanh_bounds(F64x4::broadcast(x));
  double lo[4], hi[4];
  tb.lo.store(lo);
  tb.hi.store(hi);
  if (lo[0] + u >= 0.0) return true;
  if (hi[0] + u < 0.0) return false;
  return std::tanh(x) + u >= 0.0;
}

}  // namespace saim::util
