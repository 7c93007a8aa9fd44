// The one chip-per-lane kernel implementation, templated over a mathx Ops
// policy (ScalarOps / Sse2Ops / Avx2Ops). Included ONLY by the per-ISA
// translation units (lane_kernel.cpp, lane_kernel_sse2.cpp,
// lane_kernel_avx2.cpp) — the template members are the only symbols those
// TUs emit, and they are unique per Ops, so the -mavx2 TU can never leak
// AVX2 code into a shared (comdat) symbol.
//
// Bit-identity contract: every lane performs, in order, exactly the
// floating-point operations of the scalar chip pipeline —
// draw_source_errors (the sigma_unit*sqrt(w) coefficient is one rounded
// product, computed once in scalar and broadcast, exactly as the scalar
// expression associates), SegmentedDac's levels (same unary prefix sums;
// the binary partial sums tabulated by top set bit, which reproduces the
// ascending-bit accumulation of SegmentedDac::level), and
// analyze_levels_summary (same closed-form or iterative x statistics, same
// accumulation order for sy/sxy, same final divisions, whose maxima equal
// analyze_transfer's). IEEE basic operations are correctly rounded in both
// scalar and vector form, so equal inputs in equal order give equal bits.
// min/max lanes can differ from std::min/std::max only in the sign of a
// zero, which none of the downstream arithmetic can observe (abs() feeds
// the INL max; the DNL level steps are never -0.0).
//
// Two steps differ in schedule, not in arithmetic. No 2^n levels array is
// stored: analyze_block walks the codes in order and forms each level as
// unary_prefix[c >> b] + binsum[c & mask], the same single rounded add
// SegmentedDac::level returns. And the polar draw takes its logs in a vector
// pass of their own after the rejection loop (mathx::normal_batch_xN), on
// the same accepted s values the scalar draw would pass to mathx::log; that
// log is mathx's Ops-templated log_xN, so the lanes match it bit for bit.
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
    mathx::normal_batch_xN(rng, nu + v.binary_bits, v.z, v.polar);
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

  /// analyze_levels_summary, one chip per lane, over the levels formed from
  /// v.unary_prefix and v.binsum in code order (code c = u * nb + j).
  static void analyze_block(const LaneView& v, InlReference ref,
                            StaticSummary* out) {
    const int n = v.n_codes;
    const int nb = 1 << v.binary_bits;  // codes per unary step
    const int np = v.num_unary + 1;     // unary steps
    const F64 one = Ops::fset1(1.0);
    const F64 l0 = level(v, 0, 0);
    F64 gain, offset;
    if (ref == InlReference::kEndpoint) {
      gain = Ops::fdiv(Ops::fsub(level(v, np - 1, nb - 1), l0),
                       Ops::fset1(static_cast<double>(n - 1)));
      offset = l0;
    } else {
      // The x statistics are lane-independent; compute them in scalar with
      // analyze_levels_summary's exact branches.
      const auto nn = static_cast<double>(n);
      double sx, sxx;
      if (static_cast<std::size_t>(n) <= (std::size_t{1} << 17)) {
        const auto m = static_cast<std::int64_t>(n) - 1;
        sx = static_cast<double>(m * (m + 1) / 2);
        sxx = static_cast<double>(m * (m + 1) * (2 * m + 1) / 6);
      } else {
        sx = 0.0;
        sxx = 0.0;
        for (int i = 0; i < n; ++i) {
          const auto x = static_cast<double>(i);
          sx += x;
          sxx += x * x;
        }
      }
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
      const double denom = nn * sxx - sx * sx;
      if (denom == 0.0) detail::throw_degenerate();
      gain = Ops::fdiv(Ops::fsub(Ops::fmul(Ops::fset1(nn), sxy),
                                 Ops::fmul(Ops::fset1(sx), sy)),
                       Ops::fset1(denom));
      offset = Ops::fdiv(Ops::fsub(sy, Ops::fmul(gain, Ops::fset1(sx))),
                         Ops::fset1(nn));
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

  static void mc_block(ChipWorkspaceXN& ws, double sigma_unit,
                       std::uint64_t seed, std::int64_t chip0,
                       InlReference ref, StaticSummary* out) {
    detail::count_chip_evals(L);
    const LaneView v = detail::lane_view(ws);
    mathx::Xoshiro256xN<Ops> rng;
    rng.seed_streams(seed, static_cast<std::uint64_t>(chip0), 1);
    draw_block(v, rng, sigma_unit);
    transfer_block(v, v.unary);
    analyze_block(v, ref, out);
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
    StaticSummary s[L];
    analyze_block(v, InlReference::kBestFit, s);
    for (int l = 0; l < L; ++l) pass_before[l] = s[l].inl_max < inl_limit;
    detail::cal_trim_lanes(ws, L, opts, seed, chip0);
    transfer_block(v, v.trimmed_unary);
    analyze_block(v, InlReference::kBestFit, s);
    for (int l = 0; l < L; ++l) pass_after[l] = s[l].inl_max < inl_limit;
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
    StaticSummary s[L];
    analyze_block(v, r.ref, s);
    Ops::fstoreu(log_w, lw);
    for (int l = 0; l < L; ++l) fail[l] = s[l].inl_max < r.inl_limit ? 0 : 1;
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
      StaticSummary s[L];
      analyze_block(v, r.ref, s);
      for (int l = 0; l < L; ++l) {
        pass[2 * l + m] = s[l].inl_max < r.inl_limit ? 1 : 0;
      }
    }
  }

  static void draw_normals(std::uint64_t seed, std::uint64_t index0,
                           std::uint64_t stride, int count, double* out) {
    mathx::Xoshiro256xN<Ops> rng;
    rng.seed_streams(seed, index0, stride);
    // The production batched draw, in chunks sized to a stack scratch.
    constexpr int kChunk = 64;
    double scratch[kChunk * L];
    for (int i = 0; i < count; i += kChunk) {
      const int c = count - i < kChunk ? count - i : kChunk;
      mathx::normal_batch_xN(rng, c, out + i * L, scratch);
    }
  }

  static void draw_bits(std::uint64_t seed, std::uint64_t index0,
                        std::uint64_t stride, int count, std::uint64_t* out) {
    mathx::Xoshiro256xN<Ops> rng;
    rng.seed_streams(seed, index0, stride);
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
    return k;
  }
};

}  // namespace csdac::dac
