// The one chip-per-lane kernel implementation, templated over a mathx Ops
// policy (ScalarOps / Sse2Ops / Avx2Ops). Included ONLY by the kernel
// translation units (lane_kernel.cpp for width 1 and SSE2,
// lane_kernel_avx2.cpp) — the template members are the only symbols the
// AVX2 TU emits, and they are unique per Ops, so the -mavx2 TU can never
// leak AVX2 code into a shared (comdat) symbol.
//
// Bit-identity contract: every lane performs, in order, exactly the
// floating-point operations of the scalar chip pipeline —
// draw_source_errors (the sigma_unit*sqrt(w) coefficient is one rounded
// product, computed once in scalar and broadcast, exactly as the scalar
// expression associates), calibrate's trim (trim_block, with std::round
// rebuilt from basic operations), SegmentedDac's levels (same unary prefix
// sums; the binary partial sums tabulated by top set bit, which reproduces
// the ascending-bit accumulation of SegmentedDac::level), and
// analyze_levels_summary (same closed-form or iterative x statistics, same
// accumulation order for sy/sxy, same final divisions, whose maxima equal
// analyze_transfer's). IEEE basic operations are correctly rounded in both
// scalar and vector form, so equal inputs in equal order give equal bits.
// min/max lanes can differ from std::min/std::max only in the sign of a
// zero, which none of the downstream arithmetic can observe (abs() feeds
// the INL max; the DNL level steps are never -0.0).
//
// The blocks' verdicts (metric < limit) are the one place that skips the
// scalar arithmetic: decide_block takes max|INL| and max|DNL| from the
// segmented decomposition of the levels in O(2^(n-b) + 2^b) and walks all
// 2^n codes with analyze_block (the exact chain above) only for a lane
// whose decomposed metric lies within a certified rounding bound of the
// limit. The verdicts are equal; the maxima themselves are exact only
// where the walk ran (decompose documents the bound).
//
// One step differs in schedule, not in arithmetic. No 2^n levels array is
// stored: analyze_block walks the codes in order and forms each level as
// unary_prefix[c >> b] + binsum[c & mask], the same single rounded add
// SegmentedDac::level returns. The normal draws are mathx::normal_batch_xN,
// the lane instance of the scalar ziggurat, so they match it bit for bit.
//
// The rare-event blocks (is_block, strat_block) have no separate scalar
// body: the width-1 ScalarOps instance is the reference, and every wider
// lane repeats its operations in the same order — mode projections summed
// in index order, log_w += log g_k - (c_k * t) * t, the tilt z += (g_k - 1)
// * t * v_k mode by mode. log g_k is precomputed once per run by the caller
// with mathx::log; half_normal_inv is an out-of-line mathx call per lane,
// whose logs and exp are mathx's too (its Halley step still takes libm's
// erfc, through normal_cdf).
#pragma once

#include <cmath>
#include <limits>

#include "dac/lane_kernel.hpp"
#include "mathx/rare_event.hpp"

namespace csdac::dac {

template <class Ops>
struct LaneKernelImpl {
  using F64 = typename Ops::F64;
  using Mask = typename Ops::Mask;
  static constexpr int L = Ops::kLanes;

  /// The standard-normal draws of draw_source_errors, one chip per
  /// lane, in its stream order, into v.z: the unary draws (raw), then the
  /// binary ones, which also become the binary source errors in v.binary.
  /// rng must already be seeded to the per-lane streams.
  static void draw_standard(const LaneView& v, mathx::Xoshiro256xN<Ops>& rng,
                            double sigma_unit) {
    if (!(sigma_unit >= 0.0)) detail::throw_bad_sigma();
    const int nu = v.num_unary;
    mathx::normal_batch_xN(rng, nu + v.binary_bits, v.z);
    for (int k = 0; k < v.binary_bits; ++k) {
      const double w = std::ldexp(1.0, k);
      const double cw = sigma_unit * std::sqrt(w);
      Ops::fstoreu(v.binary + k * L,
                   Ops::fadd(Ops::fset1(w),
                             Ops::fmul(Ops::fset1(cw),
                                       Ops::floadu(v.z + (nu + k) * L))));
    }
  }

  /// v.unary = w + sigma_unit*sqrt(w) * z, the unary half of the mismatch
  /// model (z may alias v.unary).
  static void unary_from_z(const LaneView& v, double sigma_unit,
                           const double* z) {
    const double uw = v.unary_weight;
    const F64 uwv = Ops::fset1(uw);
    const F64 cuv = Ops::fset1(sigma_unit * std::sqrt(uw));
    for (int i = 0; i < v.num_unary; ++i) {
      Ops::fstoreu(v.unary + i * L,
                   Ops::fadd(uwv, Ops::fmul(cuv, Ops::floadu(z + i * L))));
    }
  }

  /// draw_source_errors, one chip per lane.
  static void draw_block(const LaneView& v, mathx::Xoshiro256xN<Ops>& rng,
                         double sigma_unit) {
    draw_standard(v, rng, sigma_unit);
    unary_from_z(v, sigma_unit, v.z);
  }

  /// Mode amplitude sum_i basis[i] * z_i, accumulated in index order.
  static F64 project(const LaneView& v, const double* basis, const double* z) {
    F64 t = Ops::fset1(0.0);
    for (int i = 0; i < v.num_unary; ++i) {
      t = Ops::fadd(t, Ops::fmul(Ops::fset1(basis[i]), Ops::floadu(z + i * L)));
    }
    return t;
  }

  /// dst = src + scale * basis, per lane (dst may alias src).
  static void add_mode(const LaneView& v, double* dst, const double* src,
                       F64 scale, const double* basis) {
    for (int i = 0; i < v.num_unary; ++i) {
      Ops::fstoreu(dst + i * L,
                   Ops::fadd(Ops::floadu(src + i * L),
                             Ops::fmul(scale, Ops::fset1(basis[i]))));
    }
  }

  /// The transfer tables, one chip per lane, from the given unary
  /// weights (v.unary pre-calibration, v.trimmed_unary post): the unary
  /// prefix sums and the binary partial sums. The levels themselves are
  /// formed by analyze_block.
  static void transfer_block(const LaneView& v, const double* unary_src) {
    F64 acc = Ops::fset1(0.0);
    Ops::fstoreu(v.unary_prefix, acc);
    for (int i = 0; i < v.num_unary; ++i) {
      acc = Ops::fadd(acc, Ops::floadu(unary_src + i * L));
      Ops::fstoreu(v.unary_prefix + (i + 1) * L, acc);
    }
    Ops::fstoreu(v.binsum, Ops::fset1(0.0));
    for (int j = 1; j < (1 << v.binary_bits); ++j) {
      int k = 0;
      while ((j >> (k + 1)) != 0) ++k;  // index of the top set bit
      Ops::fstoreu(v.binsum + j * L,
                   Ops::fadd(Ops::floadu(v.binsum + (j ^ (1 << k)) * L),
                             Ops::floadu(v.binary + k * L)));
    }
  }

  /// Transfer level of code (u << b) | j: SegmentedDac::level's one
  /// rounded add.
  static F64 level(const LaneView& v, int u, int j) {
    return Ops::fadd(Ops::floadu(v.unary_prefix + u * L),
                     Ops::floadu(v.binsum + j * L));
  }

  /// The best-fit gain and offset from the level sums sy and sxy, with
  /// analyze_levels_summary's x statistics (LaneView::x_sum, x_denom).
  static void fit_line(const LaneView& v, F64 sy, F64 sxy, F64& gain,
                       F64& offset) {
    if (v.x_denom == 0.0) detail::throw_degenerate();
    const F64 nn = Ops::fset1(static_cast<double>(v.n_codes));
    gain = Ops::fdiv(Ops::fsub(Ops::fmul(nn, sxy),
                               Ops::fmul(Ops::fset1(v.x_sum), sy)),
                     Ops::fset1(v.x_denom));
    offset = Ops::fdiv(Ops::fsub(sy, Ops::fmul(gain, Ops::fset1(v.x_sum))),
                       nn);
  }

  /// The endpoint line through the first and last levels.
  static void endpoint_line(const LaneView& v, F64& gain, F64& offset) {
    const F64 l0 = level(v, 0, 0);
    gain = Ops::fdiv(
        Ops::fsub(level(v, v.num_unary, (1 << v.binary_bits) - 1), l0),
        Ops::fset1(static_cast<double>(v.n_codes - 1)));
    offset = l0;
  }

  /// analyze_levels_summary, one chip per lane, over the levels formed from
  /// v.unary_prefix and v.binsum in code order (code c = u * nb + j): the
  /// exact walk, the value oracle of decide_block and its fallback.
  static void analyze_block(const LaneView& v, InlReference ref,
                            StaticSummary* out) {
    const int nb = 1 << v.binary_bits;  // codes per unary step
    const int np = v.num_unary + 1;     // unary steps
    const F64 one = Ops::fset1(1.0);
    const F64 l0 = level(v, 0, 0);
    F64 gain, offset;
    if (ref == InlReference::kEndpoint) {
      endpoint_line(v, gain, offset);
    } else {
      // x runs through the codes as an exact integer-valued double.
      F64 sy = Ops::fset1(0.0), sxy = Ops::fset1(0.0), x = Ops::fset1(0.0);
      for (int u = 0; u < np; ++u) {
        for (int j = 0; j < nb; ++j) {
          const F64 li = level(v, u, j);
          sy = Ops::fadd(sy, li);
          sxy = Ops::fadd(sxy, Ops::fmul(x, li));
          x = Ops::fadd(x, one);
        }
      }
      fit_line(v, sy, sxy, gain, offset);
    }
    // A flat lane would divide by zero below; the scalar kernel throws for
    // such a chip, so the whole block throws (MC mismatch draws never
    // produce an exactly-zero gain in practice).
    if (Ops::movemask(Ops::cmp_eq(gain, Ops::fset1(0.0))) != 0) {
      detail::throw_flat();
    }

    F64 rmax = Ops::fabs(Ops::fsub(l0, offset));
    F64 dmin = Ops::fsub(level(v, 1 >> v.binary_bits, 1 & (nb - 1)), l0);
    F64 dmax = dmin;
    F64 prev = l0;
    F64 x = one;
    for (int u = 0; u < np; ++u) {
      for (int j = u == 0 ? 1 : 0; j < nb; ++j) {  // codes 1 .. n-1
        const F64 li = level(v, u, j);
        const F64 resid =
            Ops::fsub(li, Ops::fadd(offset, Ops::fmul(gain, x)));
        rmax = Ops::fmax(rmax, Ops::fabs(resid));
        const F64 d = Ops::fsub(li, prev);
        dmin = Ops::fmin(dmin, d);
        dmax = Ops::fmax(dmax, d);
        prev = li;
        x = Ops::fadd(x, one);
      }
    }
    const F64 inl = Ops::fdiv(rmax, Ops::fabs(gain));
    const F64 dlo = Ops::fsub(Ops::fdiv(dmin, gain), one);
    const F64 dhi = Ops::fsub(Ops::fdiv(dmax, gain), one);
    const F64 dnl = Ops::fmax(Ops::fabs(dlo), Ops::fabs(dhi));
    double inl_a[L], dnl_a[L];
    Ops::fstoreu(inl_a, inl);
    Ops::fstoreu(dnl_a, dnl);
    for (int l = 0; l < L; ++l) {
      out[l].inl_max = inl_a[l];
      out[l].dnl_max = dnl_a[l];
    }
  }

  /// The segmented decomposition's maxima, and for each a certified bound
  /// of at least 4x its distance from the exact walk's value.
  struct Decomposed {
    F64 inl, dnl;
    F64 inl_bound, dnl_bound;
  };

  /// Higham's gamma_k = k u / (1 - k u), u = 2^-53: the relative error
  /// bound of k chained roundings.
  static double gamma(double k) {
    constexpr double u = 0x1p-53;
    return k * u / (1.0 - k * u);
  }

  // Every level is P_u + B_j, a unary prefix sum plus a binary partial sum
  // (np = 2^(n-b) prefixes, nb = 2^b partial sums, code i = u*nb + j), so
  // the line, max|INL| and max|DNL| come from O(np + nb) terms instead of
  // the exact walk's 2n:
  //   sy  = nb*sum P + np*sum B,
  //   sxy = sum_u P_u (u nb^2 + nb(nb-1)/2) + sum_j B_j (nb np(np-1)/2 + np j),
  //   resid(u, j) = A_u + C_j, A_u = P_u - (offset + gain u nb),
  //   C_j = B_j - gain j, so max_j |resid| = max(|A_u + C_max|,
  //   |A_u + C_min|) (rounding is monotone, so this also holds for the
  //   rounded A_u + C_j), and the n-1 level steps are the nb-1 inner
  //   steps B_j - B_{j-1} (the same in every unary step) and the np-1
  //   boundary steps P_u - P_{u-1} - B_{nb-1}.
  //
  // The bound. u = 2^-53, g_k = gamma(k), M = max|P| + max|B| bounds every
  // real level L_i = P_u + B_j, S = n(n-1)/2 (= sx, an exact integer), and
  // k = max(np, nb). Both paths approximate the same real quantities from
  // the same stored P and B; bound each against the reals and add.
  //  * Sums. The exact walk rounds each level (u M), sums n of them (g_{n-1}
  //    n M) and n products i*l_i (x exact; g_{n+1} S M), so |dsy| <= g_n n M
  //    and |dsxy| <= g_{n+1} S M. The decomposition sums np (nb) terms per
  //    half, scales by the exact powers of two nb and np, multiplies by
  //    exact integer coefficients (which sum to S per half) and adds the
  //    halves once: g_{k+1} n M and g_{k+1} S M. So the two paths' sy
  //    differ by at most E_y = n M (g_n + g_{k+1}) and their sxy by
  //    E_xy = S M (g_{n+1} + g_{k+1}).
  //  * Gain, (nn sxy - sx sy) / denom with nn, sx, denom shared scalars:
  //    the sum differences move it by (n E_xy + S E_y) / denom, and each
  //    path's three roundings by g_3 (n |sxy| + 2 S |sy|) / denom <=
  //    3 g_3 R (1 + g_{n+1}), R = n S M / denom. So
  //    dg = R (2 g_{n+1} + 2 g_{k+1} + 7 g_3).
  //  * Offset, (sy - gain sx) / nn (the division by the power of two nn is
  //    exact): do = (E_y + S dg) / n + 2 g_3 (n M + (|gain| + dg) S) / n.
  //  * Residuals. The exact walk's l_i - (offset + gain x) carries the
  //    level rounding and three more, the decomposition's A_u + C_j four:
  //    g_4 T each, T = M + |offset| + do + (|gain| + dg)(n-1). The two lines
  //    differ by do + (n-1) dg at any code, so the two max|resid| differ by
  //    at most dr = 2 g_4 T + do + (n-1) dg (a max moves no more than its
  //    largest argument).
  //  * Steps. Exact: two rounded levels and a rounded difference of
  //    magnitude <= 2M, g_4 M. Decomposition: one rounding on an inner step
  //    (<= 2u M), two on a boundary step (<= 2 g_2 M). dd = g_8 M.
  //  * Divisions by the gains. With g_lo = |gain| - dg > 0, |a/x - b/y| <=
  //    |a - b|/|x| + |b| |x - y| / (|x| |y|), plus each path's final
  //    roundings (one division for INL; a division and the -1 for DNL):
  //      INL: (dr + inl dg) / g_lo + 2u inl
  //      DNL: (dd + (dnl + 1) dg) / g_lo + 2u (2 dnl + 3)
  // The bound evaluates each bracket times (1 + 32u), which covers the
  // roundings of evaluating it, and then a safety factor of 4. A gain not
  // certified away from zero (|gain| <= 4 dg, where the exact walk's gain
  // may be 0 and its throw_flat fire) gets an infinite bound. The endpoint
  // line is the same two-level expression in both paths, so there dg =
  // do = 0. A NaN level makes the sums NaN, and 0 * sum poisons the bound,
  // since fmax alone can drop a NaN.
  static Decomposed decompose(const LaneView& v, InlReference ref) {
    constexpr double u = 0x1p-53;
    const int nb = 1 << v.binary_bits;
    const int np = v.num_unary + 1;
    const auto nd = static_cast<double>(v.n_codes);
    const F64 zero = Ops::fset1(0.0);
    const F64 one = Ops::fset1(1.0);
    const double* P = v.unary_prefix;
    const double* B = v.binsum;
    const F64 b_top = Ops::floadu(B + (nb - 1) * L);

    // Binary half: sums, max|B|, inner steps (np >= 2, so a boundary step
    // seeds the step extremes).
    F64 dmin =
        Ops::fsub(Ops::fsub(Ops::floadu(P + L), Ops::floadu(P)), b_top);
    F64 dmax = dmin;
    F64 sb = zero, sbd = zero, bmax = zero, prev = zero;
    const std::int64_t d0 = std::int64_t{nb} * np * (np - 1) / 2;
    for (int j = 0; j < nb; ++j) {
      const F64 bj = Ops::floadu(B + j * L);
      bmax = Ops::fmax(bmax, Ops::fabs(bj));
      sb = Ops::fadd(sb, bj);
      const auto d_j = static_cast<double>(d0 + std::int64_t{np} * j);
      sbd = Ops::fadd(sbd, Ops::fmul(Ops::fset1(d_j), bj));
      if (j > 0) {
        const F64 d = Ops::fsub(bj, prev);
        dmin = Ops::fmin(dmin, d);
        dmax = Ops::fmax(dmax, d);
      }
      prev = bj;
    }
    // Unary half: sums, max|P|, boundary steps.
    F64 sp = zero, spc = zero, pmax = zero;
    const std::int64_t c0 = std::int64_t{nb} * (nb - 1) / 2;
    const std::int64_t nb2 = std::int64_t{nb} * nb;
    for (int k = 0; k < np; ++k) {
      const F64 pk = Ops::floadu(P + k * L);
      pmax = Ops::fmax(pmax, Ops::fabs(pk));
      sp = Ops::fadd(sp, pk);
      const auto c_k = static_cast<double>(c0 + nb2 * k);
      spc = Ops::fadd(spc, Ops::fmul(Ops::fset1(c_k), pk));
      if (k > 1) {
        const F64 d =
            Ops::fsub(Ops::fsub(pk, Ops::floadu(P + (k - 1) * L)), b_top);
        dmin = Ops::fmin(dmin, d);
        dmax = Ops::fmax(dmax, d);
      }
    }
    const F64 m = Ops::fadd(Ops::fadd(pmax, bmax),
                            Ops::fmul(zero, Ops::fadd(sp, sb)));

    F64 gain, offset, dg = zero, doff = zero;
    if (ref == InlReference::kEndpoint) {
      endpoint_line(v, gain, offset);
    } else {
      const F64 sy = Ops::fadd(Ops::fmul(Ops::fset1(nb), sp),
                               Ops::fmul(Ops::fset1(np), sb));
      fit_line(v, sy, Ops::fadd(spc, sbd), gain, offset);
      const double k1 = static_cast<double>(np > nb ? np : nb) + 1.0;
      dg = Ops::fmul(m, Ops::fset1(nd * v.x_sum / v.x_denom *
                                   (2.0 * gamma(nd + 1.0) + 2.0 * gamma(k1) +
                                    7.0 * gamma(3.0))));
      const F64 e_y = Ops::fmul(m, Ops::fset1(nd * (gamma(nd) + gamma(k1))));
      const F64 sx = Ops::fset1(v.x_sum);
      doff = Ops::fdiv(
          Ops::fadd(
              Ops::fadd(e_y, Ops::fmul(sx, dg)),
              Ops::fmul(Ops::fset1(2.0 * gamma(3.0)),
                        Ops::fadd(Ops::fmul(Ops::fset1(nd), m),
                                  Ops::fmul(Ops::fadd(Ops::fabs(gain), dg),
                                            sx)))),
          Ops::fset1(nd));
    }

    // INL: the binary half's residual extremes, then one pass over the
    // unary prefixes.
    F64 cmax = zero, cmin = zero;
    for (int j = 1; j < nb; ++j) {
      const F64 c = Ops::fsub(Ops::floadu(B + j * L),
                              Ops::fmul(gain, Ops::fset1(j)));
      cmax = Ops::fmax(cmax, c);
      cmin = Ops::fmin(cmin, c);
    }
    F64 rmax = zero;
    for (int k = 0; k < np; ++k) {
      const F64 a = Ops::fsub(
          Ops::floadu(P + k * L),
          Ops::fadd(offset,
                    Ops::fmul(gain, Ops::fset1(static_cast<double>(k) * nb))));
      rmax = Ops::fmax(rmax, Ops::fmax(Ops::fabs(Ops::fadd(a, cmax)),
                                       Ops::fabs(Ops::fadd(a, cmin))));
    }
    const F64 ag = Ops::fabs(gain);
    Decomposed r;
    r.inl = Ops::fdiv(rmax, ag);
    r.dnl = Ops::fmax(Ops::fabs(Ops::fsub(Ops::fdiv(dmin, gain), one)),
                      Ops::fabs(Ops::fsub(Ops::fdiv(dmax, gain), one)));

    const F64 t = Ops::fadd(
        Ops::fadd(m, Ops::fadd(Ops::fabs(offset), doff)),
        Ops::fmul(Ops::fadd(ag, dg), Ops::fset1(nd - 1.0)));
    const F64 dr =
        Ops::fadd(Ops::fmul(Ops::fset1(2.0 * gamma(4.0)), t),
                  Ops::fadd(doff, Ops::fmul(Ops::fset1(nd - 1.0), dg)));
    const F64 g_lo = Ops::fsub(ag, dg);
    const F64 scale = Ops::fset1(4.0 * (1.0 + 32.0 * u));
    const F64 inl_b = Ops::fadd(
        Ops::fdiv(Ops::fadd(dr, Ops::fmul(r.inl, dg)), g_lo),
        Ops::fmul(Ops::fset1(2.0 * u), r.inl));
    const F64 dnl_b = Ops::fadd(
        Ops::fdiv(Ops::fadd(Ops::fmul(Ops::fset1(gamma(8.0)), m),
                            Ops::fmul(Ops::fadd(r.dnl, one), dg)),
                  g_lo),
        Ops::fmul(Ops::fset1(2.0 * u),
                  Ops::fadd(Ops::fmul(Ops::fset1(2.0), r.dnl),
                            Ops::fset1(3.0))));
    const F64 inf = Ops::fset1(std::numeric_limits<double>::infinity());
    const auto certified = Ops::cmp_gt(ag, Ops::fmul(Ops::fset1(4.0), dg));
    r.inl_bound = Ops::fselect(certified, Ops::fmul(scale, inl_b), inf);
    r.dnl_bound = Ops::fselect(certified, Ops::fmul(scale, dnl_b), inf);
    return r;
  }

  /// pass[l] = (max|INL| or max|DNL| of lane l) < limit, equal to the
  /// verdict of analyze_block's value. A lane is decided from the
  /// decomposition when its metric lies farther than its bound from the
  /// limit; otherwise (metric within the bound, or a metric or bound that
  /// is NaN or infinite: those comparisons are false) the block takes the
  /// exact walk and that lane's verdict comes from it. An exactly flat
  /// lane always falls back (its bound is infinite), so throw_flat fires
  /// as before.
  static void decide_block(const LaneView& v, InlReference ref,
                           ChipMetric metric, double limit, bool* pass) {
    const Decomposed d = decompose(v, ref);
    const bool inl = metric == ChipMetric::kInl;
    const F64 value = inl ? d.inl : d.dnl;
    const F64 lim = Ops::fset1(limit);
    const int fast = Ops::movemask(Ops::cmp_gt(
        Ops::fabs(Ops::fsub(value, lim)), inl ? d.inl_bound : d.dnl_bound));
    const int below = Ops::movemask(Ops::cmp_lt(value, lim));
    int exact = 0;
    if (fast != (1 << L) - 1) {
      StaticSummary s[L];
      analyze_block(v, ref, s);
      for (int l = 0; l < L; ++l) {
        if ((fast >> l) & 1) continue;
        pass[l] = (inl ? s[l].inl_max : s[l].dnl_max) < limit;
        ++exact;
      }
    }
    for (int l = 0; l < L; ++l) {
      if ((fast >> l) & 1) pass[l] = ((below >> l) & 1) != 0;
    }
    detail::count_decisions(L, exact);
  }

  static typename Ops::U64 sign_bit() {
    return Ops::uset1(std::uint64_t{1} << 63);
  }

  /// std::round per lane (half away from zero) from IEEE basic operations
  /// and bit casts, bit for bit: |x| + 2^52 - 2^52 is |x| rounded to the
  /// nearest even integer (exact below 2^52, where it is used; larger
  /// magnitudes, infinities and NaN are already integral), minus one where
  /// that rounded up gives the truncation t; |x| - t (exact) >= 0.5 adds
  /// one; x's sign bit goes back on, so -0.0 and -0.3 round to -0.0.
  static F64 round_half_away(F64 x) {
    const F64 zero = Ops::fset1(0.0);
    const F64 one = Ops::fset1(1.0);
    const F64 big = Ops::fset1(0x1p52);
    const F64 a = Ops::fabs(x);
    F64 t = Ops::fsub(Ops::fadd(a, big), big);
    t = Ops::fsub(t, Ops::fselect(Ops::cmp_gt(t, a), one, zero));
    t = Ops::fselect(Ops::cmp_lt(a, big), t, a);
    t = Ops::fadd(t, Ops::fselect(Ops::cmp_lt(Ops::fsub(a, t),
                                              Ops::fset1(0.5)),
                                  zero, one));
    return Ops::as_f64(
        Ops::uor(Ops::as_u64(t), Ops::uand(Ops::as_u64(x), sign_bit())));
  }

  /// calibrate's trim, one chip per lane, from v.unary into
  /// v.trimmed_unary. The measurement-noise draws come from the
  /// (seed, 2*(chip0+l)+1) streams through normal_batch_xN into v.z (free
  /// once the unary weights are drawn), and each source takes
  /// calibrate's operations in its order: (w - nominal) + (0.0 +
  /// noise * z), divided by the step, round_half_away, times the step,
  /// std::clamp's two comparisons, negated (sign flip), added to w.
  static void trim_block(const LaneView& v, const CalibrationOptions& opts,
                         std::uint64_t seed, std::int64_t chip0) {
    opts.validate();
    const bool noisy = opts.measure_noise_lsb > 0.0;
    if (noisy) {
      mathx::Xoshiro256xN<Ops> rng;
      rng.seed_streams(seed, 2 * static_cast<std::uint64_t>(chip0) + 1, 2);
      mathx::normal_batch_xN(rng, v.num_unary, v.z);
    }
    const double half_range = 0.5 * opts.range_lsb;
    const F64 zero = Ops::fset1(0.0);
    const F64 nominal = Ops::fset1(v.unary_weight);
    const F64 noise = Ops::fset1(opts.measure_noise_lsb);
    // CalibrationOptions::step_lsb(), spelled out: an inline function
    // called from here would be emitted with this TU's ISA flags.
    const F64 step = Ops::fset1(opts.range_lsb / (1 << opts.bits));
    const F64 lo = Ops::fset1(-half_range);
    const F64 hi = Ops::fset1(half_range);
    for (int i = 0; i < v.num_unary; ++i) {
      const F64 w = Ops::floadu(v.unary + i * L);
      const F64 measured = Ops::fadd(
          Ops::fsub(w, nominal),
          noisy ? Ops::fadd(zero, Ops::fmul(noise, Ops::floadu(v.z + i * L)))
                : zero);
      const F64 q =
          Ops::fmul(round_half_away(Ops::fdiv(measured, step)), step);
      const F64 c = Ops::fselect(Ops::cmp_lt(q, lo), lo,
                                 Ops::fselect(Ops::cmp_lt(hi, q), hi, q));
      const F64 trim = Ops::as_f64(Ops::uxor(Ops::as_u64(c), sign_bit()));
      Ops::fstoreu(v.trimmed_unary + i * L, Ops::fadd(w, trim));
    }
  }

  /// Draw and transfer tables of mc_block's chips.
  static LaneView mc_chips(ChipWorkspaceXN& ws, double sigma_unit,
                           std::uint64_t seed, std::int64_t chip0) {
    const LaneView v = detail::lane_view(ws);
    mathx::Xoshiro256xN<Ops> rng;
    rng.seed_streams(seed, static_cast<std::uint64_t>(chip0), 1);
    draw_block(v, rng, sigma_unit);
    transfer_block(v, v.unary);
    return v;
  }

  static void mc_block(ChipWorkspaceXN& ws, double sigma_unit,
                       std::uint64_t seed, std::int64_t chip0,
                       InlReference ref, ChipMetric metric, double limit,
                       bool* pass) {
    detail::count_chip_evals(L);
    decide_block(mc_chips(ws, sigma_unit, seed, chip0), ref, metric, limit,
                 pass);
  }

  static void mc_values(ChipWorkspaceXN& ws, double sigma_unit,
                        std::uint64_t seed, std::int64_t chip0,
                        InlReference ref, StaticSummary* out) {
    analyze_block(mc_chips(ws, sigma_unit, seed, chip0), ref, out);
  }

  static void mc_bounds(ChipWorkspaceXN& ws, double sigma_unit,
                        std::uint64_t seed, std::int64_t chip0,
                        InlReference ref, StaticSummary* fast,
                        StaticSummary* bound) {
    const Decomposed d =
        decompose(mc_chips(ws, sigma_unit, seed, chip0), ref);
    double a[4][L];
    Ops::fstoreu(a[0], d.inl);
    Ops::fstoreu(a[1], d.dnl);
    Ops::fstoreu(a[2], d.inl_bound);
    Ops::fstoreu(a[3], d.dnl_bound);
    for (int l = 0; l < L; ++l) {
      fast[l] = {a[0][l], a[1][l]};
      bound[l] = {a[2][l], a[3][l]};
    }
  }

  static void round_lanes(const double* in, double* out) {
    Ops::fstoreu(out, round_half_away(Ops::floadu(in)));
  }

  static void cal_block(ChipWorkspaceXN& ws, double sigma_unit,
                        const CalibrationOptions& opts, std::uint64_t seed,
                        std::int64_t chip0, double inl_limit,
                        bool* pass_before, bool* pass_after) {
    detail::count_chip_evals(L);
    const LaneView v = detail::lane_view(ws);
    mathx::Xoshiro256xN<Ops> rng;
    rng.seed_streams(seed, 2 * static_cast<std::uint64_t>(chip0), 2);
    draw_block(v, rng, sigma_unit);
    transfer_block(v, v.unary);
    decide_block(v, InlReference::kBestFit, ChipMetric::kInl, inl_limit,
                 pass_before);
    trim_block(v, opts, seed, chip0);
    transfer_block(v, v.trimmed_unary);
    decide_block(v, InlReference::kBestFit, ChipMetric::kInl, inl_limit,
                 pass_after);
  }

  static void is_block(ChipWorkspaceXN& ws, const RareRun& r,
                       std::int64_t chip0, double* log_w,
                       unsigned char* fail) {
    detail::count_chip_evals(L);
    const LaneView v = detail::lane_view(ws);
    mathx::Xoshiro256xN<Ops> rng;
    rng.seed_streams(r.seed, static_cast<std::uint64_t>(chip0), 1);
    draw_standard(v, rng, r.sigma_unit);
    const int u = v.num_unary;
    F64 lw = Ops::fset1(0.0);
    for (int k = 0; k < r.modes; ++k) {
      const F64 t = project(v, r.basis + k * u, v.z);
      Ops::fstoreu(v.amp + k * L, t);
      const F64 ct = Ops::fmul(Ops::fset1(r.half_g2m1[k]), t);
      lw = Ops::fadd(lw, Ops::fsub(Ops::fset1(r.log_g[k]), Ops::fmul(ct, t)));
    }
    for (int k = 0; k < r.modes; ++k) {
      const F64 boost =
          Ops::fmul(Ops::fset1(r.g_minus_1[k]), Ops::floadu(v.amp + k * L));
      add_mode(v, v.z, v.z, boost, r.basis + k * u);
    }
    unary_from_z(v, r.sigma_unit, v.z);
    transfer_block(v, v.unary);
    bool pass[L];
    decide_block(v, r.ref, ChipMetric::kInl, r.inl_limit, pass);
    Ops::fstoreu(log_w, lw);
    for (int l = 0; l < L; ++l) fail[l] = pass[l] ? 0 : 1;
  }

  static void strat_block(ChipWorkspaceXN& ws, const RareRun& r,
                          std::int64_t pair0, unsigned char* pass) {
    detail::count_chip_evals(2 * L);
    const LaneView v = detail::lane_view(ws);
    mathx::Xoshiro256xN<Ops> rng;
    rng.seed_streams(r.seed, static_cast<std::uint64_t>(pair0), 1);
    draw_standard(v, rng, r.sigma_unit);
    double u_raw[L], flip[L], t[L];
    Ops::fstoreu(u_raw, mathx::uniform01_from_bits<Ops>(rng.next()));
    Ops::fstoreu(flip, mathx::uniform01_from_bits<Ops>(rng.next()));
    Ops::fstoreu(t, project(v, r.basis, v.z));
    for (int m = 0; m < 2; ++m) {
      // Replace the first-mode amplitude t by the stratified magnitude a:
      // z' = z + (a - t) v_0. The inverse cdf is scalar per lane.
      double shift[L];
      for (int l = 0; l < L; ++l) {
        const int s = static_cast<int>((pair0 + l) % r.strata);
        const double u_in = m == 1 ? 1.0 - u_raw[l] : u_raw[l];
        const double sign = flip[l] < 0.5 ? -1.0 : 1.0;
        shift[l] = sign * mathx::half_normal_inv((s + u_in) / r.strata) - t[l];
      }
      add_mode(v, v.unary, v.z, Ops::floadu(shift), r.basis);
      unary_from_z(v, r.sigma_unit, v.unary);
      transfer_block(v, v.unary);
      // decide_block sets every lane; the initializer only keeps GCC 12
      // from reporting the lanes it cannot follow (-Wmaybe-uninitialized).
      bool member[L] = {};
      decide_block(v, r.ref, ChipMetric::kInl, r.inl_limit, member);
      for (int l = 0; l < L; ++l) pass[2 * l + m] = member[l] ? 1 : 0;
    }
  }

  static void draw_normals(std::uint64_t seed, std::uint64_t index0,
                           std::uint64_t stride, int count, double* out) {
    mathx::Xoshiro256xN<Ops> rng;
    rng.seed_streams(seed, index0, stride);
    mathx::normal_batch_xN(rng, count, out);
  }

  static void draw_bits(std::uint64_t seed, std::uint64_t index0,
                        std::uint64_t stride, int normals, int count,
                        std::uint64_t* out) {
    mathx::Xoshiro256xN<Ops> rng;
    rng.seed_streams(seed, index0, stride);
    double row[L];
    for (int i = 0; i < normals; ++i) mathx::normal_batch_xN(rng, 1, row);
    for (int i = 0; i < count; ++i) Ops::ustoreu(out + i * L, rng.next());
  }

  static LaneKernel kernel(mathx::SimdBackend backend) {
    LaneKernel k;
    k.backend = backend;
    k.lanes = L;
    k.mc_block = &mc_block;
    k.cal_block = &cal_block;
    k.is_block = &is_block;
    k.strat_block = &strat_block;
    k.draw_normals = &draw_normals;
    k.draw_bits = &draw_bits;
    k.mc_values = &mc_values;
    k.mc_bounds = &mc_bounds;
    k.round_half_away = &round_lanes;
    return k;
  }
};

}  // namespace csdac::dac
