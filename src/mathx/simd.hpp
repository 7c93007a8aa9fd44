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
// identical to their scalar counterparts. The Gaussian draw (a 256-layer
// ziggurat) is written once: its fast path is the Ops template
// detail::ziggurat_fast, whose width-1 instance the scalar mathx::normal
// runs, and the rare draws that leave the fast path finish in the one
// scalar detail::normal_slow, on a lane from that lane's own generator
// state. So every lane is the scalar sequence by construction.
//
// This header is intrinsics-free: the templates are generic over an Ops
// policy (lane count, vector types, arithmetic). ScalarOps (width 1, plain
// double) lives here; the SSE2/AVX2 policies live in simd_sse2.hpp /
// simd_avx2.hpp. A library instantiates its kernel at width 1 and over
// Sse2Ops in its own unit (SSE2 is the x86-64 baseline) and over Avx2Ops in
// one *_avx2.cpp unit (csdac_avx2_unit in src/CMakeLists.txt), and picks
// the instance for this CPU through one SimdKernels table.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "mathx/rng.hpp"
#include "mathx/transcendental.hpp"

namespace csdac::mathx {

/// Vector instruction sets the chip-per-lane kernels can dispatch to, in
/// ascending width order (so backends compare with <).
enum class SimdBackend { kScalar = 0, kSse2 = 1, kAvx2 = 2 };
inline constexpr int kSimdBackends = 3;

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

/// Adds one to simd.dispatch.<backend>: one dispatched kernel run (a
/// lane-block MC run, a batched MOSFET evaluation). The first call
/// registers all three counters, so an exposition that shows one shows
/// all three.
void record_dispatch(SimdBackend backend);

/// One vector kernel's instances, one per backend. K is a pointer (to a
/// kernel table or a function); entry b returns backend b's instance, or
/// nullptr when this build does not compile it (no SSE2 on the target, an
/// AVX2 unit without compiler support). The scalar entry never returns
/// nullptr. A constexpr table of getters needs no initialization order and
/// leaves an AVX2 instance in its own unit.
template <class K>
struct SimdKernels {
  K (*at[kSimdBackends])();

  /// Backend b's instance, or nullptr if not compiled in.
  K get(SimdBackend b) const { return at[static_cast<int>(b)](); }

  /// The instance runs dispatch to: simd_backend()'s, or the widest
  /// narrower one compiled in. Resolved on every call, so a forced backend
  /// takes effect on the next; costs one atomic load and a branch beyond
  /// the getter.
  K select() const {
    for (int b = static_cast<int>(simd_backend());; --b) {
      if (const K k = at[b]()) return k;
    }
  }
};

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
/// stream_rng derivation. store_lane / load_lane hand one lane's state to a
/// scalar Xoshiro256 and back, so a draw the vector path cannot finish
/// continues on the lane's own stream in scalar code.
template <class Ops>
class Xoshiro256xN {
 public:
  using U64 = typename Ops::U64;

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

  /// Lane l's state as a scalar generator.
  Xoshiro256 store_lane(int l) const {
    Xoshiro256 g{Xoshiro256::Unseeded{}};
    for (int j = 0; j < 4; ++j) {
      std::uint64_t w[Ops::kLanes];
      Ops::ustoreu(w, s_[j]);
      g.s_[j] = w[l];
    }
    return g;
  }

  /// Replaces lane l's state with g's. A blend, not a store and reload:
  /// a vector load over a freshly stored lane would stall on the store.
  void load_lane(int l, const Xoshiro256& g) {
    static constexpr double kLaneIds[] = {0.0, 1.0, 2.0, 3.0};
    static_assert(Ops::kLanes <= 4);
    const typename Ops::Mask m = Ops::cmp_eq(
        Ops::floadu(kLaneIds), Ops::fset1(static_cast<double>(l)));
    for (int j = 0; j < 4; ++j) {
      s_[j] = Ops::ublend(m, Ops::uset1(g.s_[j]), s_[j]);
    }
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

// --- Gaussian draw: the 256-layer ziggurat ---------------------------------

namespace detail {

/// The tables of the 256-layer Marsaglia-Tsang ziggurat (J. Stat. Softw.
/// 5(8), 2000) for f(x) = exp(-x^2 / 2): layers of equal area v under f,
/// with r = 3.6541528853610088 and v = 0.00492867323399. Layer i spans
/// abscissas [0, x[i]) between heights f[i] and f[i + 1]; layer 0 is the
/// base strip plus the tail beyond r, given the pseudo-width
/// x[0] = v / f(r). Built once, on first use, from mathx::exp, mathx::log
/// and IEEE sqrt, so every host holds the same bits.
struct ZigguratTables {
  double x[257];  ///< x[0] = v / f(r), x[1] = r, ..., x[256] = 0
  double f[257];  ///< f(x[i]); f[256] = 1
};

inline constexpr double kZigguratR = 3.6541528853610088;
inline constexpr double kZigguratV = 0.00492867323399;

/// The tables (built on the first call; thread-safe).
const ZigguratTables& ziggurat_tables();

/// Finishes a scalar draw whose raw word `w` fell outside its layer's
/// rectangle: the wedge test (one more uniform) or Marsaglia's tail
/// method, then fresh draws on rejection. Out of line: the scalar normal
/// and every lane's rare path run this one compiled copy.
double normal_slow(std::uint64_t w, Xoshiro256& rng);

/// The ziggurat's fast path on every lane of `w`, whose lanes are stored
/// in `w_l`: bits 0-7 pick the layer i, bit 8 is the sign, and bits 12-63
/// the magnitude u = (w >> 12) 2^-52 in [0, 1), formed exactly as
/// (1 + u) - 1 from the bits; |z| = u * x[i]. Returns the signed z and a
/// mask of the lanes whose |z| < x[i + 1], i.e. inside the layer's
/// rectangle and so under f: those lanes are final draws.
template <class Ops>
typename Ops::F64 ziggurat_fast(const ZigguratTables& t,
                                typename Ops::U64 w,
                                const std::uint64_t* w_l,
                                typename Ops::Mask& inside) {
  constexpr int L = Ops::kLanes;
  double width[L], edge[L];
  for (int l = 0; l < L; ++l) {
    const std::size_t i = w_l[l] & 0xff;
    width[l] = t.x[i];
    edge[l] = t.x[i + 1];
  }
  const typename Ops::F64 u = Ops::fsub(
      Ops::as_f64(Ops::uor(Ops::usrl(w, 12),
                           Ops::uset1(0x3ff0000000000000ull))),
      Ops::fset1(1.0));
  const typename Ops::F64 a = Ops::fmul(u, Ops::floadu(width));
  inside = Ops::cmp_lt(a, Ops::floadu(edge));
  const typename Ops::U64 sign =
      Ops::usll(Ops::uand(w, Ops::uset1(0x100)), 55);
  return Ops::as_f64(Ops::uxor(Ops::as_u64(a), sign));
}

}  // namespace detail

/// `count` lane-wise standard normals into out[i * kLanes + l]: row i of
/// lane l is that lane's i-th scalar mathx::normal draw. Each row takes one
/// raw word per lane; the vector fast path settles every lane whose draw
/// lands inside its layer's rectangle (98.5 % of draws), and a lane
/// that falls in a wedge or the tail finishes that row in scalar
/// (detail::normal_slow) from its own generator state, which is then put
/// back. So every lane consumes exactly its scalar stream, and the
/// generator state after the call is the scalar one.
template <class Ops>
void normal_batch_xN(Xoshiro256xN<Ops>& rng, int count, double* out) {
  constexpr int L = Ops::kLanes;
  constexpr int kAll = (1 << L) - 1;
  const detail::ZigguratTables& t = detail::ziggurat_tables();
  // A local copy lets the state stay in registers across rows.
  Xoshiro256xN<Ops> lanes = rng;
  for (int i = 0; i < count; ++i) {
    const typename Ops::U64 w = lanes.next();
    std::uint64_t w_l[L];
    Ops::ustoreu(w_l, w);
    typename Ops::Mask inside;
    Ops::fstoreu(out + i * L, detail::ziggurat_fast<Ops>(t, w, w_l, inside));
    const int miss = ~Ops::movemask(inside) & kAll;
    if (miss == 0) [[likely]] continue;
    for (int l = 0; l < L; ++l) {
      if (((miss >> l) & 1) == 0) continue;
      Xoshiro256 g = lanes.store_lane(l);
      out[i * L + l] = detail::normal_slow(w_l[l], g);
      lanes.load_lane(l, g);
    }
  }
  rng = lanes;
}

}  // namespace csdac::mathx
