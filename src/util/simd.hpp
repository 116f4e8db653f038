// Portable 4-lane SIMD shim for the sweep engines.
//
// F64x4 / U64x4 wrap one AVX2 vector, a pair of NEON vectors, or a plain
// 4-element array, behind one API. Every backend implements IDENTICAL
// per-lane semantics — same operations, same rounding, no FMA contraction
// — so a binary built with SAIM_SIMD=OFF (or on a host without AVX2/NEON)
// produces bit-identical results to the intrinsic paths. That invariant is
// what lets the blocked p-bit sweep, the tiered acceptance tests
// (util/accept_bounds.hpp) and the vectorized Adjacency reductions claim
// bit-exact parity with their scalar references on every platform. U64x4
// carries only what the exp bounds need: bit casts and a left shift.
// trunc_i32 and gather4 turn 4 lanes into int32 indices and load through
// them: the tanh bracket table, and the p-bit sweep's visits outside
// sequential order.
//
// Feature selection is compile-time: AVX2 when the compiler was given
// -mavx2 (CMake's SAIM_SIMD=ON does this on x86-64), NEON on aarch64, the
// scalar emulation otherwise or when SAIM_SIMD_DISABLE is defined.
//
// Mask discipline: comparison results are canonical masks (all-ones or
// all-zeros per lane). select() and mask arithmetic assume canonical
// masks; feeding arbitrary bit patterns is undefined behaviour of this
// shim (the AVX2 blend reads only the lane's sign bit).
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#if !defined(SAIM_SIMD_DISABLE)
#if defined(__AVX2__)
#define SAIM_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define SAIM_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace saim::util {

#if defined(SAIM_SIMD_AVX2)

struct U64x4;

struct F64x4 {
  __m256d v;

  static F64x4 zero() noexcept { return {_mm256_setzero_pd()}; }
  static F64x4 broadcast(double x) noexcept { return {_mm256_set1_pd(x)}; }
  static F64x4 set(double a, double b, double c, double d) noexcept {
    return {_mm256_set_pd(d, c, b, a)};  // lane 0 = a
  }
  static F64x4 load(const double* p) noexcept {
    return {_mm256_loadu_pd(p)};
  }
  void store(double* p) const noexcept { _mm256_storeu_pd(p, v); }
};

struct U64x4 {
  __m256i v;
};

inline F64x4 operator+(F64x4 a, F64x4 b) noexcept {
  return {_mm256_add_pd(a.v, b.v)};
}
inline F64x4 operator-(F64x4 a, F64x4 b) noexcept {
  return {_mm256_sub_pd(a.v, b.v)};
}
inline F64x4 operator*(F64x4 a, F64x4 b) noexcept {
  return {_mm256_mul_pd(a.v, b.v)};
}
inline F64x4 operator/(F64x4 a, F64x4 b) noexcept {
  return {_mm256_div_pd(a.v, b.v)};
}
inline F64x4 fmax4(F64x4 a, F64x4 b) noexcept {
  return {_mm256_max_pd(a.v, b.v)};
}
inline F64x4 fmin4(F64x4 a, F64x4 b) noexcept {
  return {_mm256_min_pd(a.v, b.v)};
}
inline F64x4 floor4(F64x4 a) noexcept { return {_mm256_floor_pd(a.v)}; }

// fp comparisons -> canonical all-ones/all-zeros masks (carried as F64x4).
inline F64x4 cmp_lt(F64x4 a, F64x4 b) noexcept {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
}
inline F64x4 cmp_le(F64x4 a, F64x4 b) noexcept {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)};
}
inline F64x4 cmp_ge(F64x4 a, F64x4 b) noexcept {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)};
}

// Bitwise mask algebra on F64x4-carried masks.
inline F64x4 mask_andnot(F64x4 a, F64x4 b) noexcept {  // ~a & b
  return {_mm256_andnot_pd(a.v, b.v)};
}

/// Per-lane `mask ? a : b` (mask canonical).
inline F64x4 select(F64x4 mask, F64x4 a, F64x4 b) noexcept {
  return {_mm256_blendv_pd(b.v, a.v, mask.v)};
}
/// 4-bit lane mask from the sign bits (bit l = lane l).
inline int movemask(F64x4 mask) noexcept { return _mm256_movemask_pd(mask.v); }

inline F64x4 bitcast_f64(U64x4 a) noexcept {
  return {_mm256_castsi256_pd(a.v)};
}
inline U64x4 bitcast_u64(F64x4 a) noexcept {
  return {_mm256_castpd_si256(a.v)};
}

template <int K>
inline U64x4 shl(U64x4 a) noexcept {
  return {_mm256_slli_epi64(a.v, K)};
}

/// Lane-wise conversion toward zero: out[l] = (int32)a_l. Lanes must be
/// finite and inside the int32 range; callers clamp first.
inline void trunc_i32(F64x4 a, std::int32_t (&out)[4]) noexcept {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), _mm256_cvttpd_epi32(a.v));
}

#elif defined(SAIM_SIMD_NEON)

struct U64x4;

struct F64x4 {
  float64x2_t lo, hi;

  static F64x4 zero() noexcept { return {vdupq_n_f64(0.0), vdupq_n_f64(0.0)}; }
  static F64x4 broadcast(double x) noexcept {
    return {vdupq_n_f64(x), vdupq_n_f64(x)};
  }
  static F64x4 set(double a, double b, double c, double d) noexcept {
    const double lo[2] = {a, b}, hi[2] = {c, d};
    return {vld1q_f64(lo), vld1q_f64(hi)};
  }
  static F64x4 load(const double* p) noexcept {
    return {vld1q_f64(p), vld1q_f64(p + 2)};
  }
  void store(double* p) const noexcept {
    vst1q_f64(p, lo);
    vst1q_f64(p + 2, hi);
  }
};

struct U64x4 {
  uint64x2_t lo, hi;
};

inline F64x4 operator+(F64x4 a, F64x4 b) noexcept {
  return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
}
inline F64x4 operator-(F64x4 a, F64x4 b) noexcept {
  return {vsubq_f64(a.lo, b.lo), vsubq_f64(a.hi, b.hi)};
}
inline F64x4 operator*(F64x4 a, F64x4 b) noexcept {
  return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
}
inline F64x4 operator/(F64x4 a, F64x4 b) noexcept {
  return {vdivq_f64(a.lo, b.lo), vdivq_f64(a.hi, b.hi)};
}
inline F64x4 fmax4(F64x4 a, F64x4 b) noexcept {
  return {vmaxq_f64(a.lo, b.lo), vmaxq_f64(a.hi, b.hi)};
}
inline F64x4 fmin4(F64x4 a, F64x4 b) noexcept {
  return {vminq_f64(a.lo, b.lo), vminq_f64(a.hi, b.hi)};
}
inline F64x4 floor4(F64x4 a) noexcept {
  return {vrndmq_f64(a.lo), vrndmq_f64(a.hi)};
}

inline F64x4 cmp_lt(F64x4 a, F64x4 b) noexcept {
  return {vreinterpretq_f64_u64(vcltq_f64(a.lo, b.lo)),
          vreinterpretq_f64_u64(vcltq_f64(a.hi, b.hi))};
}
inline F64x4 cmp_le(F64x4 a, F64x4 b) noexcept {
  return {vreinterpretq_f64_u64(vcleq_f64(a.lo, b.lo)),
          vreinterpretq_f64_u64(vcleq_f64(a.hi, b.hi))};
}
inline F64x4 cmp_ge(F64x4 a, F64x4 b) noexcept {
  return {vreinterpretq_f64_u64(vcgeq_f64(a.lo, b.lo)),
          vreinterpretq_f64_u64(vcgeq_f64(a.hi, b.hi))};
}

inline F64x4 mask_andnot(F64x4 a, F64x4 b) noexcept {  // ~a & b
  return {vreinterpretq_f64_u64(vbicq_u64(vreinterpretq_u64_f64(b.lo),
                                          vreinterpretq_u64_f64(a.lo))),
          vreinterpretq_f64_u64(vbicq_u64(vreinterpretq_u64_f64(b.hi),
                                          vreinterpretq_u64_f64(a.hi)))};
}

inline F64x4 select(F64x4 mask, F64x4 a, F64x4 b) noexcept {
  return {vbslq_f64(vreinterpretq_u64_f64(mask.lo), a.lo, b.lo),
          vbslq_f64(vreinterpretq_u64_f64(mask.hi), a.hi, b.hi)};
}
inline int movemask(F64x4 mask) noexcept {
  const uint64x2_t lo = vreinterpretq_u64_f64(mask.lo);
  const uint64x2_t hi = vreinterpretq_u64_f64(mask.hi);
  return static_cast<int>((vgetq_lane_u64(lo, 0) >> 63) |
                          ((vgetq_lane_u64(lo, 1) >> 63) << 1) |
                          ((vgetq_lane_u64(hi, 0) >> 63) << 2) |
                          ((vgetq_lane_u64(hi, 1) >> 63) << 3));
}

inline F64x4 bitcast_f64(U64x4 a) noexcept {
  return {vreinterpretq_f64_u64(a.lo), vreinterpretq_f64_u64(a.hi)};
}
inline U64x4 bitcast_u64(F64x4 a) noexcept {
  return {vreinterpretq_u64_f64(a.lo), vreinterpretq_u64_f64(a.hi)};
}

template <int K>
inline U64x4 shl(U64x4 a) noexcept {
  return {vshlq_n_u64(a.lo, K), vshlq_n_u64(a.hi, K)};
}

#else  // scalar emulation — identical 4-lane semantics, no intrinsics

struct U64x4;

struct F64x4 {
  double v[4];

  static F64x4 zero() noexcept { return {{0.0, 0.0, 0.0, 0.0}}; }
  static F64x4 broadcast(double x) noexcept { return {{x, x, x, x}}; }
  static F64x4 set(double a, double b, double c, double d) noexcept {
    return {{a, b, c, d}};
  }
  static F64x4 load(const double* p) noexcept {
    return {{p[0], p[1], p[2], p[3]}};
  }
  void store(double* p) const noexcept {
    p[0] = v[0];
    p[1] = v[1];
    p[2] = v[2];
    p[3] = v[3];
  }
};

struct U64x4 {
  std::uint64_t v[4];
};

namespace simd_detail {
constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};
inline double mask_bits(bool b) noexcept {
  return std::bit_cast<double>(b ? kAllOnes : std::uint64_t{0});
}
}  // namespace simd_detail

#define SAIM_SIMD_LANEWISE(name, expr)           \
  inline F64x4 name(F64x4 a, F64x4 b) noexcept { \
    F64x4 r;                                     \
    for (int l = 0; l < 4; ++l) {                \
      const double x = a.v[l], y = b.v[l];       \
      (void)x;                                   \
      (void)y;                                   \
      r.v[l] = (expr);                           \
    }                                            \
    return r;                                    \
  }

SAIM_SIMD_LANEWISE(operator+, x + y)
SAIM_SIMD_LANEWISE(operator-, x - y)
SAIM_SIMD_LANEWISE(operator*, x* y)
SAIM_SIMD_LANEWISE(operator/, x / y)
SAIM_SIMD_LANEWISE(fmax4, (x > y) ? x : y)
SAIM_SIMD_LANEWISE(fmin4, (x < y) ? x : y)
SAIM_SIMD_LANEWISE(cmp_lt, simd_detail::mask_bits(x < y))
SAIM_SIMD_LANEWISE(cmp_le, simd_detail::mask_bits(x <= y))
SAIM_SIMD_LANEWISE(cmp_ge, simd_detail::mask_bits(x >= y))
#undef SAIM_SIMD_LANEWISE

inline F64x4 floor4(F64x4 a) noexcept {
  return {{std::floor(a.v[0]), std::floor(a.v[1]), std::floor(a.v[2]),
           std::floor(a.v[3])}};
}

inline F64x4 mask_andnot(F64x4 a, F64x4 b) noexcept {  // ~a & b
  F64x4 r;
  for (int l = 0; l < 4; ++l) {
    r.v[l] = std::bit_cast<double>(~std::bit_cast<std::uint64_t>(a.v[l]) &
                                   std::bit_cast<std::uint64_t>(b.v[l]));
  }
  return r;
}

inline F64x4 select(F64x4 mask, F64x4 a, F64x4 b) noexcept {
  F64x4 r;
  for (int l = 0; l < 4; ++l) {
    r.v[l] = (std::bit_cast<std::uint64_t>(mask.v[l]) >> 63) ? a.v[l] : b.v[l];
  }
  return r;
}
inline int movemask(F64x4 mask) noexcept {
  int m = 0;
  for (int l = 0; l < 4; ++l) {
    m |= static_cast<int>(std::bit_cast<std::uint64_t>(mask.v[l]) >> 63) << l;
  }
  return m;
}

inline F64x4 bitcast_f64(U64x4 a) noexcept {
  return {{std::bit_cast<double>(a.v[0]), std::bit_cast<double>(a.v[1]),
           std::bit_cast<double>(a.v[2]), std::bit_cast<double>(a.v[3])}};
}
inline U64x4 bitcast_u64(F64x4 a) noexcept {
  return {{std::bit_cast<std::uint64_t>(a.v[0]),
           std::bit_cast<std::uint64_t>(a.v[1]),
           std::bit_cast<std::uint64_t>(a.v[2]),
           std::bit_cast<std::uint64_t>(a.v[3])}};
}

template <int K>
inline U64x4 shl(U64x4 a) noexcept {
  return {{a.v[0] << K, a.v[1] << K, a.v[2] << K, a.v[3] << K}};
}

#endif

#if !defined(SAIM_SIMD_AVX2)
/// Lane-wise conversion toward zero: out[l] = (int32)a_l. Lanes must be
/// finite and inside the int32 range; callers clamp first.
inline void trunc_i32(F64x4 a, std::int32_t (&out)[4]) noexcept {
  double d[4];
  a.store(d);
  for (int l = 0; l < 4; ++l) out[l] = static_cast<std::int32_t>(d[l]);
}
#endif

/// Indexed load: lane l reads base[idx[l]]. Four scalar loads on every
/// backend: on the x86-64 hosts measured, an AVX2 vgatherdpd made the p-bit
/// sweep ~10% slower than the four loads.
inline F64x4 gather4(const double* base,
                     const std::int32_t (&idx)[4]) noexcept {
  return F64x4::set(base[idx[0]], base[idx[1]], base[idx[2]], base[idx[3]]);
}

// ------------------------------------------------------- shared helpers

/// Extracts the 4 lanes into an array (for deterministic horizontal
/// reductions: callers sum as (a0+a1)+(a2+a3) so every backend agrees).
inline void store4(F64x4 a, double out[4]) noexcept { a.store(out); }

}  // namespace saim::util
