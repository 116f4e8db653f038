// Semantics of the portable SIMD shim and the conservative acceptance
// bounds, on whichever backend (AVX2 / NEON / scalar emulation) this build
// compiled in. The shim's contract is per-lane scalar-identical arithmetic,
// so every check compares against plain double expressions; the bounds'
// contract is containment of the libm result, verified by a randomized
// scan over the argument ranges the sweep engines produce.
#include <gtest/gtest.h>

#include <bit>
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

TEST(SimdShim, MaskAndNotIsBitwise) {
  const double ones = std::bit_cast<double>(~std::uint64_t{0});
  const F64x4 t = F64x4::broadcast(ones);
  const F64x4 f = F64x4::zero();
  EXPECT_EQ(util::movemask(util::mask_andnot(t, t)), 0);
  EXPECT_EQ(util::movemask(util::mask_andnot(f, t)), 0b1111);
  EXPECT_EQ(util::movemask(util::mask_andnot(t, f)), 0);
  // ~mask & x clears exactly the masked lanes, bit for bit.
  const double kept[4] = {0.0, -2.5, 0.0, -0.0};
  expect_lanes(util::mask_andnot(F64x4::set(ones, 0.0, ones, 0.0),
                                 F64x4::set(1.5, -2.5, 3.0, -0.0)),
               kept);
}

// U64x4 has no loads or stores of its own: lanes enter and leave through
// the F64x4 bit casts, exactly as the exp bounds use them.
U64x4 load_bits(const std::uint64_t (&a)[4]) {
  double d[4];
  for (int l = 0; l < 4; ++l) d[l] = std::bit_cast<double>(a[l]);
  return util::bitcast_u64(F64x4::load(d));
}

void store_bits(U64x4 v, std::uint64_t (&out)[4]) {
  double d[4];
  util::bitcast_f64(v).store(d);
  for (int l = 0; l < 4; ++l) out[l] = std::bit_cast<std::uint64_t>(d[l]);
}

TEST(SimdShim, IntegerOpsMatchScalarPerLane) {
  util::Xoshiro256pp rng(2);
  for (int it = 0; it < 2000; ++it) {
    std::uint64_t a[4], b[4];
    for (int l = 0; l < 4; ++l) {
      a[l] = rng();
      b[l] = rng();
    }
    std::uint64_t got[4];
    store_bits(load_bits(a), got);
    for (int l = 0; l < 4; ++l) EXPECT_EQ(got[l], a[l]);
    store_bits(util::shl<17>(load_bits(a)), got);
    for (int l = 0; l < 4; ++l) EXPECT_EQ(got[l], a[l] << 17);
    // The shift the exp bounds use to place 2^k in the exponent field.
    store_bits(util::shl<52>(load_bits(b)), got);
    for (int l = 0; l < 4; ++l) EXPECT_EQ(got[l], b[l] << 52);
  }
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

// The p-bit bracket: one table row per 1/32 of |x|, row 256 for |x| >= 8.
// Containment of libm at every node, next to it and on a dense grid, the
// 4-lane gather equal to the scalar row, and the edge cases that could
// index outside the table.
TEST(AcceptBounds, TanhBracketContainsLibmEverywhere) {
  const auto& table = util::accept_detail::tanh_table();
  auto check = [&](double x) {
    const util::Bracket b = util::tanh_bracket(x);
    const double t = std::tanh(x);
    ASSERT_LE(b.lo, t) << "x " << x;
    ASSERT_GE(b.hi, t) << "x " << x;
    // The pad may push the bracket a hair past ±1, never further.
    ASSERT_GE(b.lo, -1.0 - 1e-12) << "x " << x;
    ASSERT_LE(b.hi, 1.0 + 1e-12) << "x " << x;
    // The row is floor(32|x|) below 8 and 256 from there on (and for inf).
    const double ax = std::abs(x);
    const int row = ax < 8.0 ? static_cast<int>(std::floor(32.0 * ax)) : 256;
    ASSERT_EQ(b.lo, x < 0.0 ? -table.hi[row] : table.lo[row]) << "x " << x;
    ASSERT_EQ(b.hi, x < 0.0 ? -table.lo[row] : table.hi[row]) << "x " << x;
  };
  // The 4-lane bracket reads the same rows, mirrored the same way.
  auto check4 = [](double a, double b, double c, double d) {
    const util::BoundsF64x4 v = util::tanh_bracket4(F64x4::set(a, b, c, d));
    double lo[4], hi[4];
    v.lo.store(lo);
    v.hi.store(hi);
    const double xs[4] = {a, b, c, d};
    for (int l = 0; l < 4; ++l) {
      const util::Bracket want = util::tanh_bracket(xs[l]);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(lo[l]),
                std::bit_cast<std::uint64_t>(want.lo))
          << "x " << xs[l];
      ASSERT_EQ(std::bit_cast<std::uint64_t>(hi[l]),
                std::bit_cast<std::uint64_t>(want.hi))
          << "x " << xs[l];
    }
  };
  std::vector<double> xs;
  for (int k = 0; k <= 300; ++k) {  // every node, past the last one too
    const double node = k / 32.0;
    for (const double x : {node, std::nextafter(node, 0.0),
                           std::nextafter(node, 20.0)}) {
      xs.push_back(x);
      xs.push_back(-x);
    }
  }
  for (int i = -9 * 4096; i <= 9 * 4096; ++i) xs.push_back(i / 4096.0);
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::min();
  const double huge = std::numeric_limits<double>::max();
  for (const double x : {0.0, 8.0, 5e-324, tiny / 2.0, tiny, 1e-300, 1e300,
                         huge, inf}) {
    xs.push_back(x);
    xs.push_back(-x);
  }
  util::Xoshiro256pp rng(5);
  for (int it = 0; it < 200000; ++it) {
    xs.push_back(9.0 * rng.uniform_sym());
    xs.push_back(40.0 * rng.uniform_sym());
  }
  for (const double x : xs) check(x);
  for (std::size_t i = 0; i + 3 < xs.size(); ++i) {
    check4(xs[i], xs[i + 1], xs[xs.size() - 1 - i], xs[(i * 7) % xs.size()]);
  }
  // ±0: the first row straddles 0. NaN: a NaN bracket decides nothing.
  EXPECT_LT(util::tanh_bracket(-0.0).lo, 0.0);
  EXPECT_GT(util::tanh_bracket(-0.0).hi, 0.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(util::tanh_bracket(nan).lo));
  EXPECT_TRUE(std::isnan(util::tanh_bracket(nan).hi));
  check4(nan, 1.0, -nan, -inf);
}

// Lanes the bracket leaves ambiguous call std::tanh, so they must be rare.
// A row is at most 1/32 wide: on a uniform (x, u) grid over the inputs a
// sweep sees, well under 1% of draws are ambiguous.
TEST(AcceptBounds, TanhBracketAmbiguousShareIsSmall) {
  for (const double span : {4.0, 9.0}) {
    std::size_t ambiguous = 0;
    std::size_t total = 0;
    for (int i = -512; i <= 512; ++i) {
      const double x = span * i / 512.0;
      const util::Bracket b = util::tanh_bracket(x);
      for (int j = -1000; j < 1000; ++j) {
        const double u = j / 1000.0;
        if (!(b.lo + u >= 0.0) && !(b.hi + u < 0.0)) ++ambiguous;
        ++total;
      }
    }
    EXPECT_GT(ambiguous, 0u) << "span " << span;
    EXPECT_LE(ambiguous, total / 100) << "span " << span;
  }
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

// The blocked p-bit sweep's 4-lane test must decide every lane exactly as
// the scalar test and libm do, whichever bracket row each lane reads, and
// leave inactive lanes 0.
TEST(AcceptBounds, TanhSignNeg4MatchesScalarTest) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> xs = {0.0,     -0.0,    5e-324,   -5e-324, 1e-300,
                            -1e-300, 1e-12,   -1e-12,   0.3,     -0.7,
                            1.5,     -3.0,    19.999999, -19.999999,
                            20.0,    -20.0,   25.0,     -25.0,   1e300,
                            -1e300,  inf,     -inf};
  // The saturation row's edge (|x| = 8), a row edge (|x| = 1) and the old
  // saturation cutoff (|x| = 20).
  for (const double edge : {8.0, -8.0, 1.0, -1.0, 20.0, -20.0}) {
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
  // The adversarial draws u = -tanh(x) and the ulps on either side: the
  // sum lands on 0 or next to it, inside the bracket's ambiguous band, so
  // the libm fallback decides them. x covers table nodes, the points just
  // inside a row, both signs and the saturation row.
  std::size_t ambiguous = 0;
  for (const double x : {5e-3, -5e-3, 0.3, -0.7, 1.5, -3.0, 5.5, -7.25, 0.25,
                         -0.25, 1.0, 7.96875, -7.96875,
                         std::nextafter(1.0, 0.0), std::nextafter(-1.0, 0.0),
                         8.0, -8.0, 9.0, -9.0, 20.0, -20.0}) {
    const double t = std::tanh(x);
    for (const double u :
         {-t, std::nextafter(-t, 2.0), std::nextafter(-t, -2.0)}) {
      points.emplace_back(x, u);
      const util::Bracket b = util::tanh_bracket(x);
      if (b.lo + u < 0.0 && b.hi + u >= 0.0) ++ambiguous;
    }
  }
  EXPECT_GE(ambiguous, 40u);

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
  // NaN: libm's tanh(NaN) + u compares false both ways, so the lane is
  // never negative and the scalar test never says non-negative.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const F64x4 x = F64x4::set(nan, -1.0, -nan, 2.0);
  const F64x4 u = F64x4::set(-1.0, 0.5, -0.5, -0.99);
  EXPECT_EQ(util::tanh_sign_neg4(x, u, 15u), 0b1010u);
  EXPECT_FALSE(util::tanh_sign_nonneg(nan, -0.5));
  EXPECT_FALSE(util::tanh_sign_nonneg(nan, 0.5));
}

// The scalar engines' tiered acceptance tests must decide every draw
// bit-identically to libm. Dense random sweeps plus the edges where tiers
// hand over: u = 0 (libm exp can underflow to exactly 0), u just
// above/below 2^-53, args in the tier-1-ambiguous band, deep-negative
// args, |x| straddling the tanh bracket's row edges and saturation row.
TEST(ScalarTieredAcceptance, ExpAcceptMatchesLibmEverywhere) {
  util::Xoshiro256pp rng(2024);
  for (int i = 0; i < 200000; ++i) {
    const double u = rng.uniform01();
    // Mix of typical Metropolis args (small negative) and extreme ones.
    const double scale = (i % 3 == 0) ? 800.0 : 8.0;
    const double arg = -scale * rng.uniform01();
    ASSERT_EQ(util::exp_accept(u, arg), u < std::exp(arg))
        << "u=" << u << " arg=" << arg;
  }
  // Edge draws: u carries no (or minimal) exponent information.
  for (const double u : {0.0, 0x1.0p-53, 0x1.0p-52, 0x1.fffffffffffffp-1}) {
    for (const double arg : {0.0, -1e-9, -0.5, -36.8, -700.0, -746.0,
                             -1000.0}) {
      ASSERT_EQ(util::exp_accept(u, arg), u < std::exp(arg))
          << "u=" << u << " arg=" << arg;
    }
  }
  // Args placed so u's biased exponent lands in the tier-1 ambiguous
  // band [r+1022, r+1023): the bounds/libm tiers must take over.
  for (int e = 1; e <= 60; ++e) {
    const double u = std::ldexp(1.0 + 1e-9, -e);  // exponent 1023 - e
    for (const double nudge : {-0.4, 0.0, 0.4}) {
      const double arg = (-e + nudge) * 0.6931471805599453094;
      ASSERT_EQ(util::exp_accept(u, arg), u < std::exp(arg))
          << "u=" << u << " arg=" << arg;
    }
  }
}

TEST(ScalarTieredAcceptance, TanhSignMatchesLibmEverywhere) {
  util::Xoshiro256pp rng(4048);
  for (int i = 0; i < 200000; ++i) {
    const double u = rng.uniform_sym();
    const double scale = (i % 3 == 0) ? 40.0 : 4.0;
    const double x = scale * rng.uniform_sym();
    ASSERT_EQ(util::tanh_sign_nonneg(x, u), std::tanh(x) + u >= 0.0)
        << "x=" << x << " u=" << u;
  }
  // The saturation row's edge (|x| = 8, band 1 - 2^-21), a row edge
  // (|x| = 1), the old cutoff (|x| = 20, band 2^-48), with the ulps next to
  // each, and the ambiguous band next to ±1.
  std::vector<double> xs = {-25.0, -19.999999, -1.0, -1e-12, 0.0,
                            1e-12, 1.0,        19.999999, 25.0};
  for (const double edge : {8.0, -8.0, 1.0, -1.0, 20.0, -20.0}) {
    xs.push_back(edge);
    xs.push_back(std::nextafter(edge, 0.0));
    xs.push_back(std::nextafter(edge, 2.0 * edge));
  }
  std::vector<double> us = {-1.0, -0.5, 0.0, 0.5, 0x1.fffffffffffffp-1};
  for (const double band : {0x1.0p-21, 0x1.0p-48, 0x1.0p-49}) {
    const double sat_u = 1.0 - band;
    for (const double u : {sat_u, std::nextafter(sat_u, 0.0),
                           std::nextafter(sat_u, 2.0)}) {
      us.push_back(u);
      us.push_back(-u);
    }
  }
  for (const double x : xs) {
    for (const double u : us) {
      ASSERT_EQ(util::tanh_sign_nonneg(x, u), std::tanh(x) + u >= 0.0)
          << "x=" << x << " u=" << u;
    }
  }
}

}  // namespace
}  // namespace saim
