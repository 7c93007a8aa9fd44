// log, exp, sin and cos built from IEEE basic operations only: +, -, *, /,
// sqrt, bit casts and integer exponent arithmetic. Each function is written
// once, as a template over the chip-per-lane Ops policy (see simd.hpp), in
// branch-free form: every lane runs the same operations in the same order
// and special inputs are patched in with selects at the end. The width-1
// ScalarOps instance IS the scalar mathx::log / exp / sin / cos, so a
// vector lane returns the scalar function's bits by construction, on any
// ISA and any libm. Nothing here calls libm; the translation units that
// instantiate these templates are compiled with -ffp-contract=off, so no
// a*b+c is fused into an FMA behind the algorithm's back.
//
// The algorithms are the fdlibm/musl ones, made branch-free:
//   log: x = 2^k (1+f) with 1+f in [sqrt(2)/2, sqrt(2)), s = f/(2+f) and
//        the Lg1..Lg7 minimax series in s^2 (musl's single-formula log);
//   exp: k = round(x/ln2), r = x - k ln2 (split ln2), fdlibm's rational
//        form with P1..P5, 2^k applied in two exact-then-rounded scalings so
//        overflow and subnormal results round once;
//   sin/cos: n = round(x 2/pi), a Cody-Waite reduction against a 152-bit
//        pi/2 (fdlibm's pio2_1, pio2_2, pio2_3, pio2_3t) that carries each
//        stage's rounding error exactly, then the FreeBSD k_sin/k_cos
//        kernels and a quadrant select.
// Measured against a long-double reference (tests/mathx/transcendental_
// test.cpp): below 1 ulp for log on (0, inf), exp over its finite range and
// sin/cos for |x| <= 1e5. The reduction stays exact up to |x| ~ 2^20 pi/2;
// past that sin/cos lose accuracy (no caller passes such angles).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

namespace csdac::mathx {

/// Natural log: -inf at +-0, NaN below 0, inf at inf, NaN for NaN.
double log(double x);
/// e^x: inf above 709.78, 0 below -745.13, NaN for NaN.
double exp(double x);
/// sin(x) and cos(x); NaN for +-inf and NaN, sin(+-0) = +-0.
double sin(double x);
double cos(double x);

/// x[i] = exp(x[i]) for every i, on the widest lanes simd_backend()
/// dispatches to. Every backend returns exp's bits, so the result does not
/// depend on the CPU; the batch only lets independent arguments share
/// vector lanes.
void exp_batch(std::span<double> x);

template <class Ops>
typename Ops::F64 log_xN(typename Ops::F64 x) {
  using F64 = typename Ops::F64;
  const auto c = [](double v) { return Ops::fset1(v); };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kLn2Hi = 0x1.62e42feep-1;          // 3fe62e42 fee00000
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;    // 3dea39ef 35793c76
  constexpr double kLg1 = 6.666666666666735130e-01;   // 3FE55555 55555593
  constexpr double kLg2 = 3.999999999940941908e-01;   // 3FD99999 9997FA04
  constexpr double kLg3 = 2.857142874366239149e-01;   // 3FD24924 94229359
  constexpr double kLg4 = 2.222219843214978396e-01;   // 3FCC71C5 1D8E78AF
  constexpr double kLg5 = 1.818357216161805012e-01;   // 3FC74664 96CB03DE
  constexpr double kLg6 = 1.531383769920937332e-01;   // 3FC39A09 D078C69F
  constexpr double kLg7 = 1.479819860511658591e-01;   // 3FC2F112 DF3E5244

  // Subnormals are scaled into the normal range (exactly) first.
  const auto sub = Ops::cmp_lt(x, c(0x1p-1022));
  const F64 xs = Ops::fselect(sub, Ops::fmul(x, c(0x1p54)), x);
  // Shift the exponent boundary to sqrt(2)/2: the biased exponent of
  // bits + (0x3ff00000 - 0x3fe6a09e) << 32 is k + 1023, and the mantissa
  // re-based on 0x3fe6a09e << 32 is 1 + f in [sqrt(2)/2, sqrt(2)).
  const auto ix = Ops::uadd(Ops::as_u64(xs), Ops::uset1(0x00095f6200000000ull));
  // k + 1023 (+ 54 for a scaled subnormal) as an exact double: OR it into
  // 2^52's mantissa and subtract 2^52 plus the bias.
  const F64 kbits = Ops::as_f64(
      Ops::uor(Ops::usrl(ix, 52), Ops::uset1(0x4330000000000000ull)));
  const F64 dk = Ops::fsub(
      kbits, Ops::fselect(sub, c(0x1p52 + 1077.0), c(0x1p52 + 1023.0)));
  const F64 m = Ops::as_f64(
      Ops::uadd(Ops::uand(ix, Ops::uset1(0x000fffffffffffffull)),
                Ops::uset1(0x3fe6a09e00000000ull)));
  const F64 f = Ops::fsub(m, c(1.0));
  const F64 hfsq = Ops::fmul(Ops::fmul(c(0.5), f), f);
  const F64 s = Ops::fdiv(f, Ops::fadd(c(2.0), f));
  const F64 z = Ops::fmul(s, s);
  const F64 w = Ops::fmul(z, z);
  // t1 = w (Lg2 + w (Lg4 + w Lg6)), t2 = z (Lg1 + w (Lg3 + w (Lg5 + w Lg7)))
  F64 t1 = Ops::fadd(c(kLg4), Ops::fmul(w, c(kLg6)));
  t1 = Ops::fmul(w, Ops::fadd(c(kLg2), Ops::fmul(w, t1)));
  F64 t2 = Ops::fadd(c(kLg5), Ops::fmul(w, c(kLg7)));
  t2 = Ops::fadd(c(kLg3), Ops::fmul(w, t2));
  t2 = Ops::fmul(z, Ops::fadd(c(kLg1), Ops::fmul(w, t2)));
  const F64 r = Ops::fadd(t2, t1);
  // s (hfsq + R) + k ln2_lo - hfsq + f + k ln2_hi, left to right.
  F64 y = Ops::fmul(s, Ops::fadd(hfsq, r));
  y = Ops::fadd(y, Ops::fmul(dk, c(kLn2Lo)));
  y = Ops::fsub(y, hfsq);
  y = Ops::fadd(y, f);
  y = Ops::fadd(y, Ops::fmul(dk, c(kLn2Hi)));

  y = Ops::fselect(Ops::cmp_eq(x, c(kInf)), x, y);
  y = Ops::fselect(Ops::cmp_eq(x, c(0.0)), c(-kInf), y);
  y = Ops::fselect(Ops::cmp_lt(x, c(0.0)), c(kNaN), y);
  return Ops::fselect(Ops::cmp_eq(x, x), y, x);
}

template <class Ops>
typename Ops::F64 exp_xN(typename Ops::F64 x) {
  using F64 = typename Ops::F64;
  const auto c = [](double v) { return Ops::fset1(v); };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kOverflow = 0x1.62e42fefa39efp+9;     // 709.78...
  constexpr double kUnderflow = -0x1.74910d52d3051p+9;   // -745.13...
  constexpr double kInvLn2 = 0x1.71547652b82fep+0;
  constexpr double kLn2Hi = 0x1.62e42feep-1;
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  constexpr double kRound = 0x1.8p52;  // adding it rounds to an integer
  constexpr double kP1 = 1.66666666666666019037e-01;   // 3FC55555 5555553E
  constexpr double kP2 = -2.77777777770155933842e-03;  // BF66C16C 16BEBD93
  constexpr double kP3 = 6.61375632143793436117e-05;   // 3F11566A AF25DE2C
  constexpr double kP4 = -1.65339022054652515390e-06;  // BEBBBD41 C5D26BF1
  constexpr double kP5 = 4.13813679705723846039e-08;   // 3E663769 72BEA4D0

  // Clamped so k stays in [-1077, 1025]; lanes outside are replaced below.
  const F64 xc = Ops::fmin(Ops::fmax(x, c(-746.0)), c(710.0));
  const F64 dk =
      Ops::fsub(Ops::fadd(Ops::fmul(xc, c(kInvLn2)), c(kRound)), c(kRound));
  const F64 hi = Ops::fsub(xc, Ops::fmul(dk, c(kLn2Hi)));  // exact
  const F64 lo = Ops::fmul(dk, c(kLn2Lo));
  const F64 r = Ops::fsub(hi, lo);
  const F64 t = Ops::fmul(r, r);
  F64 p = Ops::fadd(c(kP4), Ops::fmul(t, c(kP5)));
  p = Ops::fadd(c(kP3), Ops::fmul(t, p));
  p = Ops::fadd(c(kP2), Ops::fmul(t, p));
  p = Ops::fadd(c(kP1), Ops::fmul(t, p));
  const F64 cr = Ops::fsub(r, Ops::fmul(t, p));
  // 1 - ((lo - (r cr) / (2 - cr)) - hi)
  const F64 y = Ops::fsub(
      c(1.0),
      Ops::fsub(Ops::fsub(lo, Ops::fdiv(Ops::fmul(r, cr),
                                        Ops::fsub(c(2.0), cr))),
                hi));
  // y * 2^k as (y * 2^(k + adj)) * 2^-adj: the first product is exact
  // (2^(k + adj) stays normal), the second rounds once, into the
  // subnormals below k = -1020 or to inf above k = 1020.
  const auto low = Ops::cmp_lt(dk, c(-1020.0));
  const auto high = Ops::cmp_gt(dk, c(1020.0));
  const F64 adj =
      Ops::fselect(low, c(1000.0), Ops::fselect(high, c(-64.0), c(0.0)));
  const F64 post =
      Ops::fselect(low, c(0x1p-1000), Ops::fselect(high, c(0x1p64), c(1.0)));
  // 2^e for an integer-valued e in [-1022, 1023]: e + 1.5 * 2^52 holds e in
  // its low mantissa bits; rebias them to e + 1023 and shift into place.
  const auto ebits = Ops::uadd(
      Ops::as_u64(Ops::fadd(Ops::fadd(dk, adj), c(kRound))),
      Ops::uset1(1023ull - 0x4338000000000000ull));
  const F64 scale = Ops::as_f64(Ops::usll(ebits, 52));
  F64 e = Ops::fmul(Ops::fmul(y, scale), post);

  e = Ops::fselect(Ops::cmp_gt(x, c(kOverflow)), c(kInf), e);
  e = Ops::fselect(Ops::cmp_lt(x, c(kUnderflow)), c(0.0), e);
  return Ops::fselect(Ops::cmp_eq(x, x), e, x);
}

namespace detail {

/// a - b as the rounded difference plus its exact rounding error (Knuth's
/// TwoSum: no ordering of |a| and |b| is assumed).
template <class Ops>
typename Ops::F64 two_diff(typename Ops::F64 a, typename Ops::F64 b,
                           typename Ops::F64& err) {
  const typename Ops::F64 s = Ops::fsub(a, b);
  const typename Ops::F64 bb = Ops::fsub(a, s);  // the b that s realized
  err = Ops::fadd(Ops::fsub(a, Ops::fadd(s, bb)), Ops::fsub(bb, b));
  return s;
}

/// x = n pi/2 + y0 + y1 for n = round(x 2/pi): returns y0, sets y1 and
/// the integer n's low mantissa bits (n mod 4 in bits 0..1).
template <class Ops>
typename Ops::F64 rem_pio2_xN(typename Ops::F64 x, typename Ops::F64& y1,
                              typename Ops::U64& n_bits) {
  using F64 = typename Ops::F64;
  const auto c = [](double v) { return Ops::fset1(v); };
  constexpr double kInvPio2 = 0x1.45f306dc9c883p-1;
  constexpr double kRound = 0x1.8p52;
  // pi/2 as pio2_1 + pio2_2 + pio2_3 + pio2_3t: 33 + 33 + 33 + 53 bits.
  constexpr double kPio2_1 = 0x1.921fb544p+0;
  constexpr double kPio2_2 = 0x1.0b4611a6p-34;
  constexpr double kPio2_3 = 0x1.3198a2ep-69;
  constexpr double kPio2_3t = 0x1.b839a252049c1p-104;

  const F64 t = Ops::fadd(Ops::fmul(x, c(kInvPio2)), c(kRound));
  n_bits = Ops::as_u64(t);
  const F64 fn = Ops::fsub(t, c(kRound));
  // fn * pio2_1, _2, _3 are exact for |n| < 2^20, and so is the first
  // difference; the next two keep their rounding errors, which join the
  // last term in the tail.
  const F64 r = Ops::fsub(x, Ops::fmul(fn, c(kPio2_1)));
  F64 e1, e2;
  const F64 s1 = two_diff<Ops>(r, Ops::fmul(fn, c(kPio2_2)), e1);
  const F64 s2 = two_diff<Ops>(s1, Ops::fmul(fn, c(kPio2_3)), e2);
  const F64 tail = Ops::fsub(Ops::fadd(e1, e2), Ops::fmul(fn, c(kPio2_3t)));
  const F64 y0 = Ops::fadd(s2, tail);
  y1 = Ops::fadd(Ops::fsub(s2, y0), tail);
  return y0;
}

/// sin(x + y) on |x| <= pi/4, y the tail (FreeBSD k_sin.c, iy = 1 form).
template <class Ops>
typename Ops::F64 ksin_xN(typename Ops::F64 x, typename Ops::F64 y) {
  using F64 = typename Ops::F64;
  const auto c = [](double v) { return Ops::fset1(v); };
  constexpr double kS1 = -1.66666666666666324348e-01;  // BFC55555 55555549
  constexpr double kS2 = 8.33333333332248946124e-03;   // 3F811111 1110F8A6
  constexpr double kS3 = -1.98412698298579493134e-04;  // BF2A01A0 19C161D5
  constexpr double kS4 = 2.75573137070700676789e-06;   // 3EC71DE3 57B1FE7D
  constexpr double kS5 = -2.50507602534068634195e-08;  // BE5AE5E6 8A2B9CEB
  constexpr double kS6 = 1.58969099521155010221e-10;   // 3DE5D93A 5ACFD57C
  const F64 z = Ops::fmul(x, x);
  const F64 w = Ops::fmul(z, z);
  // S2 + z (S3 + z S4) + z w (S5 + z S6)
  const F64 r = Ops::fadd(
      Ops::fadd(c(kS2), Ops::fmul(z, Ops::fadd(c(kS3), Ops::fmul(z, c(kS4))))),
      Ops::fmul(Ops::fmul(z, w), Ops::fadd(c(kS5), Ops::fmul(z, c(kS6)))));
  const F64 v = Ops::fmul(z, x);
  // x - ((z (y/2 - v r) - y) - v S1)
  const F64 a = Ops::fmul(
      z, Ops::fsub(Ops::fmul(c(0.5), y), Ops::fmul(v, r)));
  return Ops::fsub(
      x, Ops::fsub(Ops::fsub(a, y), Ops::fmul(v, c(kS1))));
}

/// cos(x + y) on |x| <= pi/4 (FreeBSD k_cos.c).
template <class Ops>
typename Ops::F64 kcos_xN(typename Ops::F64 x, typename Ops::F64 y) {
  using F64 = typename Ops::F64;
  const auto c = [](double v) { return Ops::fset1(v); };
  constexpr double kC1 = 4.16666666666666019037e-02;   // 3FA55555 5555554C
  constexpr double kC2 = -1.38888888888741095749e-03;  // BF56C16C 16C15177
  constexpr double kC3 = 2.48015872894767294178e-05;   // 3EFA01A0 19CB1590
  constexpr double kC4 = -2.75573143513906633035e-07;  // BE927E4F 809C52AD
  constexpr double kC5 = 2.08757232129817482790e-09;   // 3E21EE9E BDB4B1C4
  constexpr double kC6 = -1.13596475577881948265e-11;  // BDA8FAE9 BE8838D4
  const F64 z = Ops::fmul(x, x);
  const F64 w = Ops::fmul(z, z);
  // z (C1 + z (C2 + z C3)) + w w (C4 + z (C5 + z C6))
  const F64 r = Ops::fadd(
      Ops::fmul(z, Ops::fadd(c(kC1),
                             Ops::fmul(z, Ops::fadd(c(kC2),
                                                    Ops::fmul(z, c(kC3)))))),
      Ops::fmul(Ops::fmul(w, w),
                Ops::fadd(c(kC4),
                          Ops::fmul(z, Ops::fadd(c(kC5),
                                                 Ops::fmul(z, c(kC6)))))));
  const F64 hz = Ops::fmul(c(0.5), z);
  const F64 one_m_hz = Ops::fsub(c(1.0), hz);
  // w + (((1 - w) - hz) + (z r - x y)), w = 1 - hz
  return Ops::fadd(
      one_m_hz,
      Ops::fadd(Ops::fsub(Ops::fsub(c(1.0), one_m_hz), hz),
                Ops::fsub(Ops::fmul(z, r), Ops::fmul(x, y))));
}

/// The quadrant step shared by sin and cos: quadrant q = n + shift
/// (shift 0 for sin, 1 for cos) picks kernel sin (q even) or cos (q odd)
/// of the reduced argument, negated when bit 1 of q is set.
template <class Ops>
typename Ops::F64 sincos_xN(typename Ops::F64 x, std::uint64_t shift) {
  using F64 = typename Ops::F64;
  const auto c = [](double v) { return Ops::fset1(v); };
  F64 y1;
  typename Ops::U64 n;
  const F64 y0 = rem_pio2_xN<Ops>(x, y1, n);
  const auto q = Ops::uadd(n, Ops::uset1(shift));
  const auto odd = Ops::cmp_eq(
      Ops::u64_to_f64_53(Ops::uand(q, Ops::uset1(1))), c(1.0));
  const F64 v = Ops::fselect(odd, kcos_xN<Ops>(y0, y1), ksin_xN<Ops>(y0, y1));
  const auto sign = Ops::usll(Ops::uand(q, Ops::uset1(2)), 62);
  const F64 r = Ops::as_f64(Ops::uxor(Ops::as_u64(v), sign));
  // inf and NaN give x - x = NaN; finite x gives 0.
  const F64 nan_or_zero = Ops::fsub(x, x);
  return Ops::fselect(Ops::cmp_eq(nan_or_zero, c(0.0)), r, nan_or_zero);
}

}  // namespace detail

namespace detail {

/// exp_batch on Ops lanes: whole vectors, then the tail padded to one.
template <class Ops>
void exp_lanes(double* x, std::size_t n) {
  constexpr std::size_t L = Ops::kLanes;
  std::size_t i = 0;
  for (; i + L <= n; i += L) {
    Ops::fstoreu(x + i, exp_xN<Ops>(Ops::floadu(x + i)));
  }
  if (i < n) {
    double pad[L] = {};
    for (std::size_t j = i; j < n; ++j) pad[j - i] = x[j];
    Ops::fstoreu(pad, exp_xN<Ops>(Ops::floadu(pad)));
    for (std::size_t j = i; j < n; ++j) x[j] = pad[j - i];
  }
}

/// The AVX2 instance (transcendental_avx2.cpp); nullptr when the compiler
/// cannot target AVX2.
using ExpLanesFn = void (*)(double*, std::size_t);
ExpLanesFn exp_lanes_avx2();

}  // namespace detail

template <class Ops>
typename Ops::F64 sin_xN(typename Ops::F64 x) {
  const typename Ops::F64 r = detail::sincos_xN<Ops>(x, 0);
  return Ops::fselect(Ops::cmp_eq(x, Ops::fset1(0.0)), x, r);  // +-0
}

template <class Ops>
typename Ops::F64 cos_xN(typename Ops::F64 x) {
  return detail::sincos_xN<Ops>(x, 1);
}

}  // namespace csdac::mathx
