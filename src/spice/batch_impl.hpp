// Shared template for the batched MOSFET evaluation prologue, instantiated
// once per SIMD backend (scalar and SSE2 in batch.cpp, AVX2 in
// batch_avx2.cpp — mirroring src/dac/lane_kernel*).
//
// The prologue covers the part of Mosfet::evaluate() that is uniform
// across operating regions: terminal swap, vgs/vds/vbs, the body-effect
// threshold (the lone sqrt), overdrive, and the mismatch-scaled beta. The
// region-dependent current/conductance tail stays scalar in batch.cpp —
// the same split mathx::normal_batch_xN makes for its wedge and tail draws.
//
// Bit-identity contract: every lane must produce exactly the bits the
// scalar Mosfet::evaluate() produces. All arithmetic below is IEEE basic
// ops + sqrt in the same association order as the scalar source; fmax/fmin
// only ever differ in which signed zero they keep, and no zero sign
// reaches an output (see the vsb note inline).
#pragma once

#include "mathx/simd.hpp"
#include "spice/batch.hpp"

namespace csdac::spice::detail {

template <class Ops>
void mos_prologue(const MosBatchConsts& c, const MosBatchSpans& io,
                  int count) {
  const auto zero = Ops::fset1(0.0);
  const auto kmin = Ops::fset1(kMosMinSqrtArg);
  const auto phi = Ops::fset1(c.phi_2f);
  const auto vt0 = Ops::fset1(c.vt0);
  const auto gamma = Ops::fset1(c.gamma);
  const auto sqphi = Ops::fset1(c.sqrt_phi);
  const auto kp = Ops::fset1(c.kp);
  const auto mm = Ops::fset1(c.m);
  const auto ww = Ops::fset1(c.w);
  const auto ll = Ops::fset1(c.l);

  int i = 0;
  for (; i + Ops::kLanes <= count; i += Ops::kLanes) {
    const auto vd = Ops::floadu(io.vd + i);
    const auto vg = Ops::floadu(io.vg + i);
    const auto vs = Ops::floadu(io.vs + i);
    const auto vb = Ops::floadu(io.vb + i);

    // Symmetric conduction: the lower terminal acts as source. The swap
    // mask is strict (vd == vs keeps the declared terminals), matching the
    // scalar `if (vd < vs)`.
    const auto swap = Ops::cmp_lt(vd, vs);
    const auto vdx = Ops::fmax(vd, vs);
    const auto vsx = Ops::fmin(vd, vs);
    const auto vgs = Ops::fsub(vg, vsx);
    const auto vds = Ops::fsub(vdx, vsx);
    const auto vbs = Ops::fsub(vb, vsx);

    // vsb = 0 - vbs differs from the scalar -vbs only when vbs == +0.0
    // (yielding +0.0 instead of -0.0); the difference dies in the
    // phi_2f + vsb addition.
    const auto vsb = Ops::fsub(zero, vbs);
    const auto pre = Ops::fadd(phi, vsb);
    const auto clamped = Ops::cmp_lt(pre, kmin);
    const auto arg = Ops::fmax(pre, kmin);
    const auto sq = Ops::fsqrt(arg);
    const auto vt =
        Ops::fadd(Ops::fadd(vt0, Ops::floadu(io.dvt + i)),
                  Ops::fmul(gamma, Ops::fsub(sq, sqphi)));
    const auto vod = Ops::fsub(vgs, vt);
    // Same association as the scalar kp * beta_scale * m * w / l.
    const auto beta = Ops::fdiv(
        Ops::fmul(Ops::fmul(Ops::fmul(kp, Ops::floadu(io.bscale + i)), mm),
                  ww),
        ll);

    Ops::fstoreu(io.vgs + i, vgs);
    Ops::fstoreu(io.vds + i, vds);
    Ops::fstoreu(io.vbs + i, vbs);
    Ops::fstoreu(io.vt + i, vt);
    Ops::fstoreu(io.vod + i, vod);
    Ops::fstoreu(io.beta + i, beta);
    Ops::fstoreu(io.sqrt_arg + i, sq);
    const int sm = Ops::movemask(swap);
    const int cm = Ops::movemask(clamped);
    for (int l = 0; l < Ops::kLanes; ++l) {
      io.swapped[i + l] = static_cast<unsigned char>((sm >> l) & 1);
      io.clamped[i + l] = static_cast<unsigned char>((cm >> l) & 1);
    }
  }
  if constexpr (Ops::kLanes > 1) {
    if (i < count) {
      MosBatchSpans tail = io;
      tail.vd += i;
      tail.vg += i;
      tail.vs += i;
      tail.vb += i;
      tail.dvt += i;
      tail.bscale += i;
      tail.vgs += i;
      tail.vds += i;
      tail.vbs += i;
      tail.vt += i;
      tail.vod += i;
      tail.beta += i;
      tail.sqrt_arg += i;
      tail.swapped += i;
      tail.clamped += i;
      mos_prologue<mathx::ScalarOps>(c, tail, count - i);
    }
  }
}

}  // namespace csdac::spice::detail
