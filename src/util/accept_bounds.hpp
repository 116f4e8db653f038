// Conservative brackets on libm exp/tanh for branch-free acceptance tests.
//
// The Monte-Carlo sweep engines spend most of a visit in one transcendental:
// Metropolis compares a uniform against exp(-beta*dH), the p-bit machine
// signs tanh(beta*I) + U(-1,1). Both are *comparisons*, not value uses — so
// a cheap interval [lo, hi] guaranteed to contain the libm result decides
// almost every visit without calling libm at all:
//
//   u <  lo  =>  u <  exp(arg)   (accept, certain)
//   u >= hi  =>  u >= exp(arg)   (reject, certain)
//   otherwise    call libm and decide exactly (rare)
//
// Decisions are therefore bit-identical to calling libm on every visit —
// the property tests/simd_shim_test.cpp and the golden trajectories pin —
// while the hot path runs a few cheap fp ops instead of a libm call.
//
// exp: exp(a) = 2^r, r = a*log2(e). k = floor(r), f = r-k (exact), and a
// degree-6 Taylor of e^(f ln2) underestimates 2^f with relative remainder
// <= ln2^7/5040 * 2 < 3.1e-5. 2^k is assembled exactly with the
// (k+1023)<<52 bit trick. Upper slack 4e-5 covers the remainder + every
// rounding (poly Horner, exponent product, libm's own <=1 ulp); lower
// slack 1e-9 covers the roundings alone. |r| > 970 falls into saturated
// branches. The interval is ~4e-5 wide relative, so on the order of 0.001%
// of Metropolis draws reach std::exp.
//
// tanh: one table. tanh is odd and increasing, so for |x| in
// [k/32, (k+1)/32) the libm value lies in [tanh(k/32), tanh((k+1)/32)],
// each node libm's own and padded by 1e-12 (far above libm's few-ulp
// error and the non-monotonicity it allows). Row 256 holds |x| >= 8 and
// ±inf: [1 - 2^-21, 1], since 1 - tanh(8) = 2.26e-7 < 2^-21. A lane reads
// row min(floor(32|x|), 256) — scaling by 32 is exact — and mirrors it
// for x < 0. A row is at most 1/32 wide, so at most ~1.6% of uniform
// draws near x = 0 reach std::tanh; over Algorithm 1 on the QKP-200 paper
// instances, 0.07% of lanes do (in 0.3% of 4-lane blocks). NaN reaches
// libm too.
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
// Tier-1 exponent trick (see exp_accept): with r = arg*log2(e), log2(u)
// lies in [e, e+1) for biased exponent be = e + 1023, so be < r + 1022
// accepts and be >= r + 1023 rejects; the 1e-9 margin dwarfs the rounding
// error in r (< 1e-12 for |arg| < 750).
inline constexpr double kTier1Accept = 1022.0 - 1e-9;
inline constexpr double kTier1Reject = 1023.0 + 1e-9;

// The tanh bracket table (see the header comment).
inline constexpr double kTanhPad = 1e-12;
inline constexpr double kTanhRowsPerUnit = 32.0;  // a power of 2: exact
inline constexpr int kTanhSatRow = 256;            // |x| >= 8
inline constexpr double kTanhSatLo = 1.0 - 0x1.0p-21;

struct TanhBracketTable {
  alignas(64) double lo[kTanhSatRow + 1];  // <= libm tanh on the row
  alignas(64) double hi[kTanhSatRow + 1];  // >= libm tanh on the row
};

/// Built on first use, so a process that never runs a p-bit sweep does no
/// tanh work.
inline const TanhBracketTable& tanh_table() noexcept {
  static const TanhBracketTable table = [] {
    TanhBracketTable t{};
    for (int k = 0; k < kTanhSatRow; ++k) {
      t.lo[k] = std::tanh(k / kTanhRowsPerUnit) - kTanhPad;
      t.hi[k] = std::tanh((k + 1) / kTanhRowsPerUnit) + kTanhPad;
    }
    t.lo[kTanhSatRow] = kTanhSatLo;
    t.hi[kTanhSatRow] = 1.0;
    return t;
  }();
  return table;
}
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

/// Per-lane [lo, hi] with lo <= std::tanh(x) <= hi: the lane's row of the
/// bracket table, mirrored for x < 0. NaN lanes get a NaN bracket, which
/// decides nothing.
inline BoundsF64x4 tanh_bracket4(F64x4 x) noexcept {
  using namespace accept_detail;
  const TanhBracketTable& table = tanh_table();
  const F64x4 zero = F64x4::zero();
  const F64x4 absx = mask_andnot(F64x4::broadcast(-0.0), x);
  // Row floor(32|x|), clamped to the saturation row before the conversion:
  // |x| >= 8, ±inf and NaN all fail the compare and read row 256.
  const F64x4 scaled = absx * F64x4::broadcast(kTanhRowsPerUnit);
  const F64x4 sat = F64x4::broadcast(static_cast<double>(kTanhSatRow));
  std::int32_t row[4];
  trunc_i32(select(cmp_lt(scaled, sat), scaled, sat), row);
  const F64x4 lo = gather4(table.lo, row);
  const F64x4 hi = gather4(table.hi, row);
  const F64x4 xneg = cmp_lt(x, zero);
  const F64x4 num = cmp_ge(absx, zero);  // false only for NaN
  return {select(num, select(xneg, zero - hi, lo), x),
          select(num, select(xneg, zero - lo, hi), x)};
}

/// 4-lane p-bit test: bit l of the result is set iff std::tanh(x_l) + u_l
/// < 0 (the p-bit settles at -1), for the lanes in `active`; inactive lanes
/// read 0 and never reach libm. The p-bit sweep (pbit/pbit_machine.cpp)
/// decides four visits at a time with it. tanh_bracket4 decides almost
/// every lane; the lanes it leaves ambiguous, and NaN lanes, call
/// std::tanh, so every decision equals the libm one. `u` lanes are
/// uniform_sym draws in [-1, 1).
inline unsigned tanh_sign_neg4(F64x4 x, F64x4 u, unsigned active) noexcept {
  const F64x4 zero = F64x4::zero();
  const BoundsF64x4 tb = tanh_bracket4(x);
  unsigned neg =
      static_cast<unsigned>(movemask(cmp_lt(tb.hi + u, zero))) & active;
  const auto pos = static_cast<unsigned>(movemask(cmp_ge(tb.lo + u, zero)));
  const unsigned amb = ~(neg | pos) & active;
  if (amb != 0) {
    double xs[4], us[4];
    x.store(xs);
    u.store(us);
    for (unsigned l = 0; l < 4; ++l) {
      if (((amb >> l) & 1u) != 0) {
        const bool lane_neg = std::tanh(xs[l]) + us[l] < 0.0;
        neg |= static_cast<unsigned>(lane_neg) << l;
      }
    }
  }
  return neg;
}

struct Bracket {
  double lo, hi;
};

/// One lane of tanh_bracket4: the same row, the same mirror, NaN for NaN.
inline Bracket tanh_bracket(double x) noexcept {
  using namespace accept_detail;
  const double absx = std::abs(x);
  if (!(absx >= 0.0)) return {x, x};  // NaN
  const TanhBracketTable& table = tanh_table();
  const double scaled = absx * kTanhRowsPerUnit;
  const int row =
      scaled < kTanhSatRow ? static_cast<int>(scaled) : kTanhSatRow;
  if (x < 0.0) return {-table.hi[row], -table.lo[row]};
  return {table.lo[row], table.hi[row]};
}

/// Scalar p-bit sign test: decides tanh(x) + u >= 0 bit-identically to
/// calling std::tanh on every draw, through tanh_bracket; ambiguous draws
/// and NaN reach libm. `u` is a uniform_sym draw in [-1, 1).
inline bool tanh_sign_nonneg(double x, double u) noexcept {
  const Bracket b = tanh_bracket(x);
  if (b.lo + u >= 0.0) return true;
  if (b.hi + u < 0.0) return false;
  return std::tanh(x) + u >= 0.0;
}

}  // namespace saim::util
