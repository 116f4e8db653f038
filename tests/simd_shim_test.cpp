// Semantics of the portable SIMD shim and the conservative acceptance
// bounds, on whichever backend (AVX2 / NEON / scalar emulation) this build
// compiled in. The shim's contract is per-lane scalar-identical arithmetic,
// so every check compares against plain double expressions; the bounds'
// contract is containment of the libm result, verified by a randomized
// scan over the argument ranges the sweep engines produce.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/accept_bounds.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace saim {
namespace {

using util::F64x4;
using util::U64x4;

void expect_lanes(F64x4 got, const double (&want)[4]) {
  double g[4];
  got.store(g);
  for (int l = 0; l < 4; ++l) {
    // Bitwise comparison: ±0.0 and NaN patterns matter to the engines.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g[l]),
              std::bit_cast<std::uint64_t>(want[l]))
        << "lane " << l;
  }
}

TEST(SimdShim, ArithmeticMatchesScalarPerLane) {
  util::Xoshiro256pp rng(1);
  for (int it = 0; it < 2000; ++it) {
    double a[4], b[4];
    for (int l = 0; l < 4; ++l) {
      a[l] = 100.0 * rng.uniform_sym();
      b[l] = 100.0 * rng.uniform_sym();
    }
    const F64x4 va = F64x4::load(a);
    const F64x4 vb = F64x4::load(b);
    const double sum[4] = {a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]};
    const double dif[4] = {a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]};
    const double mul[4] = {a[0] * b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3]};
    const double div[4] = {a[0] / b[0], a[1] / b[1], a[2] / b[2], a[3] / b[3]};
    const double flr[4] = {std::floor(a[0]), std::floor(a[1]),
                           std::floor(a[2]), std::floor(a[3])};
    expect_lanes(va + vb, sum);
    expect_lanes(va - vb, dif);
    expect_lanes(va * vb, mul);
    expect_lanes(va / vb, div);
    expect_lanes(util::floor4(va), flr);
  }
}

TEST(SimdShim, ComparisonsSelectAndMovemask) {
  const F64x4 a = F64x4::set(1.0, -2.0, 3.0, -0.0);
  const F64x4 b = F64x4::set(1.0, 0.0, 2.0, 0.0);
  // -0.0 compares equal to +0.0 in IEEE; lt is false, le/ge true.
  EXPECT_EQ(util::movemask(util::cmp_lt(a, b)), 0b0010);
  EXPECT_EQ(util::movemask(util::cmp_le(a, b)), 0b1011);
  EXPECT_EQ(util::movemask(util::cmp_ge(a, b)), 0b1101);

  const F64x4 mask = util::cmp_lt(a, b);
  const double sel[4] = {-1.0, 7.0, -3.0, -4.0};
  expect_lanes(util::select(mask, F64x4::broadcast(7.0),
                            F64x4::set(-1.0, -2.0, -3.0, -4.0)),
               sel);
}

TEST(SimdShim, MaskAlgebraIsBitwise) {
  const F64x4 t = F64x4::broadcast(std::bit_cast<double>(~std::uint64_t{0}));
  const F64x4 f = F64x4::zero();
  EXPECT_EQ(util::movemask(util::mask_and(t, f)), 0);
  EXPECT_EQ(util::movemask(util::mask_or(t, f)), 0b1111);
  EXPECT_EQ(util::movemask(util::mask_andnot(t, t)), 0);
  EXPECT_EQ(util::movemask(util::mask_andnot(f, t)), 0b1111);
  EXPECT_EQ(util::movemask(util::mask_xor(t, f)), 0b1111);
  EXPECT_EQ(util::movemask(util::mask_xor(t, t)), 0);
  // Sign-flip via xor with -0.0 — the engines' exact negation idiom.
  const double neg[4] = {-1.5, 2.5, -0.0, 0.0};
  expect_lanes(util::mask_xor(F64x4::set(1.5, -2.5, 0.0, -0.0),
                              F64x4::broadcast(-0.0)),
               neg);
}

TEST(SimdShim, IntegerOpsMatchScalarPerLane) {
  util::Xoshiro256pp rng(2);
  for (int it = 0; it < 2000; ++it) {
    std::uint64_t a[4], b[4];
    for (int l = 0; l < 4; ++l) {
      a[l] = rng();
      b[l] = rng();
    }
    const U64x4 va = U64x4::load(a);
    const U64x4 vb = U64x4::load(b);
    std::uint64_t got[4];
    (va ^ vb).store(got);
    for (int l = 0; l < 4; ++l) EXPECT_EQ(got[l], a[l] ^ b[l]);
    (va & vb).store(got);
    for (int l = 0; l < 4; ++l) EXPECT_EQ(got[l], a[l] & b[l]);
    (va | vb).store(got);
    for (int l = 0; l < 4; ++l) EXPECT_EQ(got[l], a[l] | b[l]);
    (va + vb).store(got);
    for (int l = 0; l < 4; ++l) EXPECT_EQ(got[l], a[l] + b[l]);
    util::shl<17>(va).store(got);
    for (int l = 0; l < 4; ++l) EXPECT_EQ(got[l], a[l] << 17);
    util::shr<11>(va).store(got);
    for (int l = 0; l < 4; ++l) EXPECT_EQ(got[l], a[l] >> 11);
    util::rotl4<23>(va).store(got);
    for (int l = 0; l < 4; ++l) {
      EXPECT_EQ(got[l], (a[l] << 23) | (a[l] >> 41));
    }
  }
}

TEST(SimdShim, XoshiroSoAStepMatchesScalarStreams) {
  // 4 scalar generators vs one SoA step, several steps deep.
  util::Xoshiro256pp scalar[4] = {
      util::Xoshiro256pp(util::derive_seed(9, 0)),
      util::Xoshiro256pp(util::derive_seed(9, 1)),
      util::Xoshiro256pp(util::derive_seed(9, 2)),
      util::Xoshiro256pp(util::derive_seed(9, 3))};
  std::uint64_t s[4][4];
  for (int l = 0; l < 4; ++l) {
    const auto st = scalar[l].state();
    for (int j = 0; j < 4; ++j) s[j][l] = st[j];
  }
  U64x4 s0 = U64x4::load(s[0]), s1 = U64x4::load(s[1]),
        s2 = U64x4::load(s[2]), s3 = U64x4::load(s[3]);
  for (int step = 0; step < 100; ++step) {
    const U64x4 bits = util::xoshiro4_next(s0, s1, s2, s3);
    std::uint64_t got[4];
    bits.store(got);
    for (int l = 0; l < 4; ++l) EXPECT_EQ(got[l], scalar[l]());
  }
  // Masked step: only lanes 1 and 3 advance.
  const U64x4 mask = U64x4::set(0, ~std::uint64_t{0}, 0, ~std::uint64_t{0});
  const U64x4 bits = util::xoshiro4_next_masked(mask, s0, s1, s2, s3);
  std::uint64_t got[4];
  bits.store(got);
  EXPECT_EQ(got[1], scalar[1]());
  EXPECT_EQ(got[3], scalar[3]());
  // Unmasked lanes kept their state: the NEXT full step matches a scalar
  // stream that never advanced for lanes 0/2 and advanced once for 1/3.
  const U64x4 bits2 = util::xoshiro4_next(s0, s1, s2, s3);
  bits2.store(got);
  for (int l = 0; l < 4; ++l) EXPECT_EQ(got[l], scalar[l]());
}

TEST(SimdShim, ExactU64ToF64Conversion) {
  util::Xoshiro256pp rng(3);
  for (int it = 0; it < 20000; ++it) {
    std::uint64_t x[4];
    for (int l = 0; l < 4; ++l) x[l] = rng() >> 11;  // < 2^53
    double got[4];
    util::u64_to_f64_exact53(U64x4::load(x)).store(got);
    for (int l = 0; l < 4; ++l) {
      EXPECT_EQ(got[l], static_cast<double>(x[l]));
    }
  }
  // Edges.
  double got[4];
  util::u64_to_f64_exact53(
      U64x4::set(0, 1, (std::uint64_t{1} << 53) - 1, 0x123456789abULL))
      .store(got);
  EXPECT_EQ(got[0], 0.0);
  EXPECT_EQ(got[1], 1.0);
  EXPECT_EQ(got[2], static_cast<double>((std::uint64_t{1} << 53) - 1));
  EXPECT_EQ(got[3], static_cast<double>(0x123456789abULL));
}

// The engines' correctness rests on containment: lo <= libm <= hi. Scan
// the argument ranges the sweeps produce — Metropolis args are -beta*dH
// (mostly in [-50, 0], occasionally large-negative), pbit args beta*I over
// a broad range — plus magnitude sweeps across the saturation cutoffs.
TEST(AcceptBounds, ExpBoundsContainLibmEverywhere) {
  util::Xoshiro256pp rng(4);
  auto check = [](double a) {
    const util::BoundsF64x4 b = util::exp_bounds(F64x4::broadcast(a));
    double lo[4], hi[4];
    b.lo.store(lo);
    b.hi.store(hi);
    const double e = std::exp(a);
    EXPECT_LE(lo[0], e) << "arg " << a;
    EXPECT_GE(hi[0], e) << "arg " << a;
    EXPECT_LE(lo[0], hi[0]) << "arg " << a;
  };
  for (int it = 0; it < 500000; ++it) {
    check(-60.0 * rng.uniform01());           // Metropolis band
    check(20.0 * rng.uniform_sym());          // pbit band (via tanh)
    check(2000.0 * rng.uniform_sym());        // saturation crossings
  }
  check(0.0);
  check(-0.0);
  check(-700.0);  // below double underflow of exp? (~ -745) still fine
  check(-746.0);  // true exp underflows to 0
  check(710.0);   // libm overflows to inf
  check(-std::numeric_limits<double>::infinity());
}

TEST(AcceptBounds, TanhBoundsContainLibmEverywhere) {
  util::Xoshiro256pp rng(5);
  auto check = [](double x) {
    const util::BoundsF64x4 b = util::tanh_bounds(F64x4::broadcast(x));
    double lo[4], hi[4];
    b.lo.store(lo);
    b.hi.store(hi);
    const double t = std::tanh(x);
    EXPECT_LE(lo[0], t) << "arg " << x;
    EXPECT_GE(hi[0], t) << "arg " << x;
    // The pads may push the interval a hair past ±1 — conservative and
    // harmless for sign decisions — but never by more than the pad.
    EXPECT_GE(lo[0], -1.0 - 1e-9) << "arg " << x;
    EXPECT_LE(hi[0], 1.0 + 1e-9) << "arg " << x;
  };
  for (int it = 0; it < 500000; ++it) {
    check(5.0 * rng.uniform_sym());    // typical beta*I
    check(40.0 * rng.uniform_sym());   // saturation crossings
    check(0.01 * rng.uniform_sym());   // near zero: bounds must straddle 0
  }
  check(0.0);
  check(-0.0);
  check(20.0);
  check(-20.0);
  check(1e300);
  check(-1e300);
}

// The ambiguous band (bounds fail to decide) must be rare, or the scalar
// fallback erases the speedup. Measure it on the Metropolis band.
TEST(AcceptBounds, AmbiguousBandIsNarrow) {
  util::Xoshiro256pp rng(6);
  int ambiguous = 0;
  const int trials = 200000;
  for (int it = 0; it < trials; ++it) {
    const double a = -8.0 * rng.uniform01();  // exp(a) in [3e-4, 1]
    const double u = rng.uniform01();
    const util::BoundsF64x4 b = util::exp_bounds(F64x4::broadcast(a));
    double lo[4], hi[4];
    b.lo.store(lo);
    b.hi.store(hi);
    if (!(u < lo[0]) && !(u >= hi[0])) ++ambiguous;
  }
  // Interval width is ~4e-5 relative; on uniform u the hit rate is well
  // under 0.1%. Allow 10x slack for distributional effects.
  EXPECT_LT(ambiguous, trials / 100);
}

// The shared 4-lane p-bit test (the bit-sliced engine's and the blocked
// scalar sweep's) must decide every lane exactly as the scalar tiered test
// and libm do, whichever tier the block takes, and leave inactive lanes 0.
TEST(AcceptBounds, TanhSignNeg4MatchesScalarTest) {
  std::vector<double> xs = {0.0,     -0.0,    5e-324,   -5e-324, 1e-300,
                            -1e-300, 1e-12,   -1e-12,   0.3,     -0.7,
                            1.5,     -3.0,    19.999999, -19.999999,
                            20.0,    -20.0,   25.0,     -25.0,   1e300,
                            -1e300};
  // The saturation edge (|x| = 8) and the old one (|x| = 20).
  for (const double edge : {8.0, -8.0, 20.0, -20.0}) {
    xs.push_back(edge);
    xs.push_back(std::nextafter(edge, 0.0));
    xs.push_back(std::nextafter(edge, 2.0 * edge));
  }
  std::vector<std::pair<double, double>> points;
  std::vector<double> us = {-1.0, -0.5, -0.0, 0.0, 0.5,
                            0x1.fffffffffffffp-1};
  // Draws at and next to the saturation band 1 - 2^-21, and at 1 - 2^-48.
  for (const double band : {0x1.0p-21, 0x1.0p-48}) {
    const double sat_u = 1.0 - band;
    for (const double u : {sat_u, std::nextafter(sat_u, 0.0),
                           std::nextafter(sat_u, 2.0)}) {
      us.push_back(u);
      us.push_back(-u);
    }
  }
  for (const double x : xs) {
    for (const double u : us) points.emplace_back(x, u);
  }
  // Draws right at -tanh(x) sit inside the bounds' ambiguous band, so the
  // libm fallback decides them.
  std::size_t ambiguous = 0;
  for (const double x : {5e-3, -5e-3, 0.3, -0.7, 1.5, -3.0, 5.5, -7.25}) {
    const double t = std::tanh(x);
    for (const double u :
         {-t, std::nextafter(-t, 2.0), std::nextafter(-t, -2.0)}) {
      points.emplace_back(x, u);
      const util::BoundsF64x4 b = util::tanh_bounds(F64x4::broadcast(x));
      double lo[4], hi[4];
      b.lo.store(lo);
      b.hi.store(hi);
      if (lo[0] + u < 0.0 && hi[0] + u >= 0.0) ++ambiguous;
    }
  }
  EXPECT_GE(ambiguous, 16u);

  auto check_block = [](const std::pair<double, double>* p, unsigned active) {
    const F64x4 x = F64x4::set(p[0].first, p[1].first, p[2].first, p[3].first);
    const F64x4 u =
        F64x4::set(p[0].second, p[1].second, p[2].second, p[3].second);
    const unsigned neg = util::tanh_sign_neg4(x, u, active);
    for (unsigned l = 0; l < 4; ++l) {
      const auto [xl, ul] = p[l];
      const bool want = ((active >> l) & 1u) != 0 &&
                        !util::tanh_sign_nonneg(xl, ul);
      ASSERT_EQ(((neg >> l) & 1u) != 0, want)
          << "lane " << l << " x=" << xl << " u=" << ul << " active="
          << active;
      if (((active >> l) & 1u) != 0) {
        ASSERT_EQ(want, std::tanh(xl) + ul < 0.0);
      }
    }
  };
  // Every point in every lane, next to saturated and unsaturated company,
  // under every active mask.
  const std::size_t count = points.size();
  for (std::size_t i = 0; i < count; ++i) {
    for (const std::size_t stride : {1u, 7u, 61u}) {
      const std::pair<double, double> block[4] = {
          points[i], points[(i + stride) % count],
          points[(i + 2 * stride) % count], points[(i + 3 * stride) % count]};
      for (unsigned active = 1; active < 16; ++active) {
        check_block(block, active);
      }
    }
  }
  util::Xoshiro256pp rng(7);
  for (int it = 0; it < 100000; ++it) {
    std::pair<double, double> block[4];
    for (auto& [x, u] : block) {
      x = ((it & 3) == 0 ? 40.0 : 4.0) * rng.uniform_sym();
      u = rng.uniform_sym();
    }
    check_block(block, 15u);
  }
}

}  // namespace
}  // namespace saim
