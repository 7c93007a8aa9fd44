// Chip-per-lane SIMD abstraction for the Monte-Carlo hot path: a small
// width-agnostic vector layer (one chip per lane) with AVX2, SSE2, and
// scalar backends selected by runtime CPU detection, overridable with
// CSDAC_SIMD=scalar|sse2|avx2 for testing.
//
// The design constraint is BIT-IDENTITY: every lane must reproduce the
// scalar kernel's exact arithmetic order, so the repo's
// bit-identical-for-any-thread-count guarantee (and all golden tests)
// survives vectorization. That is why the abstraction batches ACROSS chips
// (each lane is an independent chip whose operations happen in the scalar
// order) instead of vectorizing within one chip. IEEE basic operations
// (+,-,*,/,sqrt, abs) are correctly rounded and therefore lane-wise
// identical to their scalar counterparts. The Gaussian draw's log is no
// exception: it is mathx's own log_xN (transcendental.hpp), written once
// over the Ops policy from those basic operations, so its vector lanes and
// the scalar mathx::log are the same algorithm with the same bits and no
// libm is involved. normal_batch_xN still keeps the log out of the
// rejection loop: the loop only collects each lane's accepted (u, s) in
// stream order, and one vector pass then forms u * sqrt(-2 log(s) / s).
//
// This header is intrinsics-free: the templates are generic over an Ops
// policy (lane count, vector types, arithmetic). ScalarOps (width 1, plain
// double) lives here; the SSE2/AVX2 policies live in simd_sse2.hpp /
// simd_avx2.hpp and are only included by the per-ISA kernel translation
// units (the AVX2 one is compiled with -mavx2; see src/dac/CMakeLists.txt).
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "mathx/rng.hpp"
#include "mathx/transcendental.hpp"

namespace csdac::mathx {

/// Vector instruction sets the chip-per-lane kernels can dispatch to, in
/// ascending width order (so backends compare with <).
enum class SimdBackend { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// "scalar", "sse2", or "avx2".
const char* simd_backend_name(SimdBackend backend);

/// Lanes (chips per vector) of a backend: 1, 2, or 4.
int simd_lane_width(SimdBackend backend);

/// Widest backend this CPU supports (compile-target permitting). Pure
/// detection — no environment override.
SimdBackend simd_detect();

/// The backend MC runs dispatch to: simd_detect() clamped by the
/// CSDAC_SIMD environment override (scalar|sse2|avx2|auto; an override
/// wider than the CPU supports falls back to detection with a warning).
/// Resolved once on first call, then cached; simd_force_backend() replaces
/// the cached choice.
SimdBackend simd_backend();

/// Forces the dispatch choice (clamped to simd_detect(); returns what was
/// actually installed). For tests and the bench harness, which compare
/// backends within one process; production code should rely on CSDAC_SIMD.
SimdBackend simd_force_backend(SimdBackend backend);

// --- Width-1 reference policy ----------------------------------------------

/// The Ops policy contract, in its trivial width-1 instantiation. A policy
/// provides the lane count, vector value types (F64 = lanes doubles,
/// U64 = lanes uint64s, Mask = lanes predicates), and the lane-wise
/// operations the kernels use. All f64 arithmetic must be the IEEE
/// correctly-rounded operation per lane (true for scalar, SSE2, and AVX2
/// instructions alike), which is what makes the lanes bit-identical to the
/// scalar kernel. fmin/fmax may differ from std::min/std::max only in
/// which signed zero they return — callers must not depend on the sign of
/// a zero (the MC kernels do not: every min/max result flows into
/// arithmetic where -0.0 and +0.0 behave identically).
struct ScalarOps {
  static constexpr int kLanes = 1;
  using F64 = double;
  using U64 = std::uint64_t;
  using Mask = bool;

  static F64 fset1(double v) { return v; }
  static F64 floadu(const double* p) { return *p; }
  static void fstoreu(double* p, F64 v) { *p = v; }
  static F64 fadd(F64 a, F64 b) { return a + b; }
  static F64 fsub(F64 a, F64 b) { return a - b; }
  static F64 fmul(F64 a, F64 b) { return a * b; }
  static F64 fdiv(F64 a, F64 b) { return a / b; }
  static F64 fmin(F64 a, F64 b) { return a < b ? a : b; }
  static F64 fmax(F64 a, F64 b) { return a > b ? a : b; }
  static F64 fabs(F64 v) { return std::abs(v); }
  static F64 fsqrt(F64 v) { return std::sqrt(v); }
  /// m ? a : b, per lane.
  static F64 fselect(Mask m, F64 a, F64 b) { return m ? a : b; }

  static Mask cmp_gt(F64 a, F64 b) { return a > b; }
  static Mask cmp_lt(F64 a, F64 b) { return a < b; }
  static Mask cmp_eq(F64 a, F64 b) { return a == b; }
  static Mask mand(Mask a, Mask b) { return a && b; }
  /// Bit i set iff lane i's predicate holds.
  static int movemask(Mask m) { return m ? 1 : 0; }

  static U64 uset1(std::uint64_t v) { return v; }
  static U64 uloadu(const std::uint64_t* p) { return *p; }
  static void ustoreu(std::uint64_t* p, U64 v) { *p = v; }
  static U64 uadd(U64 a, U64 b) { return a + b; }
  static U64 uand(U64 a, U64 b) { return a & b; }
  static U64 uxor(U64 a, U64 b) { return a ^ b; }
  static U64 uor(U64 a, U64 b) { return a | b; }
  static U64 usll(U64 x, int k) { return x << k; }
  static U64 usrl(U64 x, int k) { return x >> k; }
  /// m ? a : b, per lane.
  static U64 ublend(Mask m, U64 a, U64 b) { return m ? a : b; }

  /// Exact u64 -> f64 for values < 2^53 (every intermediate representable,
  /// so the SIMD magic-constant sequences land on the same double as the
  /// scalar static_cast).
  static F64 u64_to_f64_53(U64 n) { return static_cast<double>(n); }

  /// The IEEE bit pattern of each lane, and back.
  static U64 as_u64(F64 v) { return std::bit_cast<std::uint64_t>(v); }
  static F64 as_f64(U64 n) { return std::bit_cast<double>(n); }
};

// --- Lane-parallel xoshiro256++ --------------------------------------------

/// N independent xoshiro256++ states advanced in lockstep, lane l seeded to
/// the (seed, index0 + stride*l) substream of the scalar engine's
/// stream_rng derivation. next(active) advances only the lanes named by
/// `active` — the batched Gaussian needs lanes that already hold all their
/// draws to stop consuming uniforms, or the generator state a block reads
/// after the draw would diverge from the per-chip scalar one.
template <class Ops>
class Xoshiro256xN {
 public:
  using U64 = typename Ops::U64;
  using Mask = typename Ops::Mask;

  void seed_streams(std::uint64_t seed, std::uint64_t index0,
                    std::uint64_t stride = 1) {
    std::uint64_t word[4][Ops::kLanes];
    for (int l = 0; l < Ops::kLanes; ++l) {
      std::uint64_t sm = detail::stream_seed(
          seed, index0 + stride * static_cast<std::uint64_t>(l));
      for (auto& w : word) w[l] = detail::splitmix64(sm);
    }
    for (int j = 0; j < 4; ++j) s_[j] = Ops::uloadu(word[j]);
  }

  /// One xoshiro256++ step on every lane.
  U64 next() {
    const U64 result = Ops::uadd(rotl(Ops::uadd(s_[0], s_[3]), 23), s_[0]);
    const U64 t = Ops::usll(s_[1], 17);
    s_[2] = Ops::uxor(s_[2], s_[0]);
    s_[3] = Ops::uxor(s_[3], s_[1]);
    s_[1] = Ops::uxor(s_[1], s_[2]);
    s_[0] = Ops::uxor(s_[0], s_[3]);
    s_[2] = Ops::uxor(s_[2], t);
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Steps only the lanes selected by `active`; inactive lanes keep their
  /// state (their returned bits are meaningless and must be ignored).
  U64 next(Mask active) {
    const U64 keep0 = s_[0], keep1 = s_[1], keep2 = s_[2], keep3 = s_[3];
    const U64 result = next();
    s_[0] = Ops::ublend(active, s_[0], keep0);
    s_[1] = Ops::ublend(active, s_[1], keep1);
    s_[2] = Ops::ublend(active, s_[2], keep2);
    s_[3] = Ops::ublend(active, s_[3], keep3);
    return result;
  }

 private:
  static U64 rotl(U64 x, int k) {
    return Ops::uor(Ops::usll(x, k), Ops::usrl(x, 64 - k));
  }

  U64 s_[4];
};

/// Lane-wise uniform01: the scalar (raw >> 11) * 0x1.0p-53 on each lane.
/// Both steps are exact (the 53-bit value converts exactly, the power-of-
/// two scale never rounds), so the result is bit-identical per lane.
template <class Ops>
typename Ops::F64 uniform01_from_bits(typename Ops::U64 raw) {
  return Ops::fmul(Ops::u64_to_f64_53(Ops::usrl(raw, 11)),
                   Ops::fset1(0x1.0p-53));
}

/// `count` lane-wise standard normals into out[i * kLanes + l]: the
/// Marsaglia polar method in three phases. Every lane reproduces the
/// scalar mathx::normal draw sequence exactly:
///   1. the rejection loop. Each iteration draws a (u, v) pair on every
///      live lane, tests 0 < s < 1 with the scalar comparisons, and writes
///      the lane's (u, s) into its next free slot of out / scratch; only
///      an accepted pair advances the slot, so a rejected one is
///      overwritten by the lane's next pair. Lanes are not lockstepped per
///      draw, so no iteration waits for the slowest lane's acceptance. A
///      lane leaves the loop after its count-th acceptance and its
///      generator stops (masked state advance), so each lane consumes
///      exactly the uniforms of its scalar sequence;
///   2. one vector pass forms u * sqrt(-2.0 * log(s) / s) with log_xN, in
///      the scalar expression's association.
/// Each draw sees the same operations on the same values in the same
/// order as the scalar mathx::normal, whose log is log_xN's width-1
/// instance. scratch holds count *
/// kLanes doubles; out and scratch must not overlap.
template <class Ops>
void normal_batch_xN(Xoshiro256xN<Ops>& rng, int count, double* out,
                     double* scratch) {
  using F64 = typename Ops::F64;
  using Mask = typename Ops::Mask;
  constexpr int L = Ops::kLanes;
  constexpr int kAll = (1 << L) - 1;
  const F64 one = Ops::fset1(1.0);
  const F64 two = Ops::fset1(2.0);
  const F64 zero = Ops::fset1(0.0);
  int filled[L] = {};  // accepted draws per lane
  int live = count > 0 ? kAll : 0;  // bit l: lane l still drawing
  const auto iterate = [&](const auto& next) {
    const F64 u =
        Ops::fsub(Ops::fmul(two, uniform01_from_bits<Ops>(next())), one);
    const F64 v =
        Ops::fsub(Ops::fmul(two, uniform01_from_bits<Ops>(next())), one);
    const F64 s = Ops::fadd(Ops::fmul(u, u), Ops::fmul(v, v));
    const int accept =
        Ops::movemask(Ops::mand(Ops::cmp_gt(s, zero), Ops::cmp_lt(s, one)));
    double u_l[L], s_l[L];
    Ops::fstoreu(u_l, u);
    Ops::fstoreu(s_l, s);
    for (int l = 0; l < L; ++l) {
      if (((live >> l) & 1) == 0) continue;
      out[filled[l] * L + l] = u_l[l];
      scratch[filled[l] * L + l] = s_l[l];
      filled[l] += (accept >> l) & 1;
      if (filled[l] == count) live &= ~(1 << l);
    }
  };
  // Unmasked steps while every lane is live keep the lane masks off the
  // generator's dependency chain; the last lanes finish under a mask.
  while (live == kAll) iterate([&] { return rng.next(); });
  while (live != 0) {
    double live_l[L];
    for (int l = 0; l < L; ++l) live_l[l] = (live >> l) & 1;
    const Mask active = Ops::cmp_gt(Ops::floadu(live_l), zero);
    iterate([&] { return rng.next(active); });
  }
  const F64 minus_two = Ops::fset1(-2.0);
  for (int i = 0; i < count; ++i) {
    const F64 s = Ops::floadu(scratch + i * L);
    const F64 q = Ops::fdiv(Ops::fmul(minus_two, log_xN<Ops>(s)), s);
    Ops::fstoreu(out + i * L,
                 Ops::fmul(Ops::floadu(out + i * L), Ops::fsqrt(q)));
  }
}

}  // namespace csdac::mathx
