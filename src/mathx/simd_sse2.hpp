// SSE2 Ops policy (2 chips per vector) for the chip-per-lane kernels.
// SSE2 is part of the x86-64 baseline, so the TU that includes this header
// needs no special compile flags on 64-bit builds; the include is still
// guarded so non-x86 builds fall back to scalar-only dispatch.
#pragma once

#if defined(__SSE2__)

#include <emmintrin.h>

#include <cstdint>

namespace csdac::mathx {

struct Sse2Ops {
  static constexpr int kLanes = 2;
  using F64 = __m128d;
  using U64 = __m128i;
  using Mask = __m128d;  // all-ones / all-zeros lanes from cmppd

  static F64 fset1(double v) { return _mm_set1_pd(v); }
  static F64 floadu(const double* p) { return _mm_loadu_pd(p); }
  static void fstoreu(double* p, F64 v) { _mm_storeu_pd(p, v); }
  static F64 fadd(F64 a, F64 b) { return _mm_add_pd(a, b); }
  static F64 fsub(F64 a, F64 b) { return _mm_sub_pd(a, b); }
  static F64 fmul(F64 a, F64 b) { return _mm_mul_pd(a, b); }
  static F64 fdiv(F64 a, F64 b) { return _mm_div_pd(a, b); }
  static F64 fmin(F64 a, F64 b) { return _mm_min_pd(a, b); }
  static F64 fmax(F64 a, F64 b) { return _mm_max_pd(a, b); }
  static F64 fabs(F64 v) { return _mm_andnot_pd(_mm_set1_pd(-0.0), v); }
  static F64 fsqrt(F64 v) { return _mm_sqrt_pd(v); }
  static F64 fselect(Mask m, F64 a, F64 b) {
    return _mm_or_pd(_mm_and_pd(m, a), _mm_andnot_pd(m, b));
  }

  static Mask cmp_gt(F64 a, F64 b) { return _mm_cmpgt_pd(a, b); }
  static Mask cmp_lt(F64 a, F64 b) { return _mm_cmplt_pd(a, b); }
  static Mask cmp_eq(F64 a, F64 b) { return _mm_cmpeq_pd(a, b); }
  static int movemask(Mask m) { return _mm_movemask_pd(m); }

  static U64 uset1(std::uint64_t v) {
    return _mm_set1_epi64x(static_cast<long long>(v));
  }
  static U64 uloadu(const std::uint64_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void ustoreu(std::uint64_t* p, U64 v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static U64 uadd(U64 a, U64 b) { return _mm_add_epi64(a, b); }
  static U64 uand(U64 a, U64 b) { return _mm_and_si128(a, b); }
  static U64 uxor(U64 a, U64 b) { return _mm_xor_si128(a, b); }
  static U64 uor(U64 a, U64 b) { return _mm_or_si128(a, b); }
  static U64 usll(U64 x, int k) { return _mm_slli_epi64(x, k); }
  static U64 usrl(U64 x, int k) { return _mm_srli_epi64(x, k); }
  static U64 ublend(Mask m, U64 a, U64 b) {
    const __m128i mi = _mm_castpd_si128(m);
    return _mm_or_si128(_mm_and_si128(mi, a), _mm_andnot_si128(mi, b));
  }

  /// Exact u64 -> f64 for n < 2^53 (SSE2 has no cvtepu64_pd): split n into
  /// lo = n & 0xFFFFFFFF and hi = n >> 32, bit-OR each into the mantissa of
  /// the exponent constants 2^52 and 2^84 (giving exactly 2^52 + lo and
  /// 2^84 + hi*2^32), then (vhi - (2^84 + 2^52)) + vlo. Every step is
  /// exact, so the result equals the scalar static_cast<double>(n).
  static F64 u64_to_f64_53(U64 n) {
    const __m128i lo = _mm_or_si128(
        _mm_and_si128(n, _mm_set1_epi64x(0xFFFFFFFFll)),
        _mm_set1_epi64x(0x4330000000000000ll));
    const __m128i hi = _mm_or_si128(_mm_srli_epi64(n, 32),
                                    _mm_set1_epi64x(0x4530000000000000ll));
    const __m128d vhi = _mm_sub_pd(_mm_castsi128_pd(hi),
                                   _mm_set1_pd(0x1.00000001p84));
    return _mm_add_pd(vhi, _mm_castsi128_pd(lo));
  }

  static U64 as_u64(F64 v) { return _mm_castpd_si128(v); }
  static F64 as_f64(U64 n) { return _mm_castsi128_pd(n); }
};

}  // namespace csdac::mathx

#endif  // __SSE2__
