// AVX2 Ops policy (4 chips per vector) for the chip-per-lane kernels.
// Only the AVX2 kernel units (the *_avx2.cpp files, compiled with -mavx2
// by csdac_avx2_unit in src/CMakeLists.txt) may include this header —
// nothing in it is safe to execute on a CPU without AVX2, and compiling it
// into a TU built with baseline flags would fail anyway.
#pragma once

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstdint>

namespace csdac::mathx {

struct Avx2Ops {
  static constexpr int kLanes = 4;
  using F64 = __m256d;
  using U64 = __m256i;
  using Mask = __m256d;  // all-ones / all-zeros lanes from cmp_pd

  static F64 fset1(double v) { return _mm256_set1_pd(v); }
  static F64 floadu(const double* p) { return _mm256_loadu_pd(p); }
  static void fstoreu(double* p, F64 v) { _mm256_storeu_pd(p, v); }
  static F64 fadd(F64 a, F64 b) { return _mm256_add_pd(a, b); }
  static F64 fsub(F64 a, F64 b) { return _mm256_sub_pd(a, b); }
  static F64 fmul(F64 a, F64 b) { return _mm256_mul_pd(a, b); }
  static F64 fdiv(F64 a, F64 b) { return _mm256_div_pd(a, b); }
  static F64 fmin(F64 a, F64 b) { return _mm256_min_pd(a, b); }
  static F64 fmax(F64 a, F64 b) { return _mm256_max_pd(a, b); }
  static F64 fabs(F64 v) {
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
  }
  static F64 fsqrt(F64 v) { return _mm256_sqrt_pd(v); }
  static F64 fselect(Mask m, F64 a, F64 b) {
    return _mm256_blendv_pd(b, a, m);
  }

  static Mask cmp_gt(F64 a, F64 b) { return _mm256_cmp_pd(a, b, _CMP_GT_OQ); }
  static Mask cmp_lt(F64 a, F64 b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static Mask cmp_eq(F64 a, F64 b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
  static int movemask(Mask m) { return _mm256_movemask_pd(m); }

  static U64 uset1(std::uint64_t v) {
    return _mm256_set1_epi64x(static_cast<long long>(v));
  }
  static U64 uloadu(const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void ustoreu(std::uint64_t* p, U64 v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static U64 uadd(U64 a, U64 b) { return _mm256_add_epi64(a, b); }
  static U64 uand(U64 a, U64 b) { return _mm256_and_si256(a, b); }
  static U64 uxor(U64 a, U64 b) { return _mm256_xor_si256(a, b); }
  static U64 uor(U64 a, U64 b) { return _mm256_or_si256(a, b); }
  static U64 usll(U64 x, int k) { return _mm256_slli_epi64(x, k); }
  static U64 usrl(U64 x, int k) { return _mm256_srli_epi64(x, k); }
  static U64 ublend(Mask m, U64 a, U64 b) {
    return _mm256_castpd_si256(
        _mm256_blendv_pd(_mm256_castsi256_pd(b), _mm256_castsi256_pd(a), m));
  }

  /// Exact u64 -> f64 for n < 2^53 (AVX2 has no cvtepu64_pd; that is
  /// AVX-512DQ): the same magic-constant split as Sse2Ops — lo 32 bits
  /// OR'd into 2^52's mantissa, high bits into 2^84's — every step exact,
  /// result bit-identical to the scalar static_cast<double>(n).
  static F64 u64_to_f64_53(U64 n) {
    const __m256i lo = _mm256_or_si256(
        _mm256_and_si256(n, _mm256_set1_epi64x(0xFFFFFFFFll)),
        _mm256_set1_epi64x(0x4330000000000000ll));
    const __m256i hi =
        _mm256_or_si256(_mm256_srli_epi64(n, 32),
                        _mm256_set1_epi64x(0x4530000000000000ll));
    const __m256d vhi = _mm256_sub_pd(_mm256_castsi256_pd(hi),
                                      _mm256_set1_pd(0x1.00000001p84));
    return _mm256_add_pd(vhi, _mm256_castsi256_pd(lo));
  }

  static U64 as_u64(F64 v) { return _mm256_castpd_si256(v); }
  static F64 as_f64(U64 n) { return _mm256_castsi256_pd(n); }
};

}  // namespace csdac::mathx

#endif  // __AVX2__
