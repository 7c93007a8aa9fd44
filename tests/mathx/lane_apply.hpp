// Test-side drivers that run mathx's Ops-templated code at one width: the
// transcendentals over an array, and the batched normal draw on a run of
// streams. lane_apply.cpp instantiates them for the AVX2 policy in a TU of
// its own (compiled with -mavx2); the test TUs instantiate the scalar and
// SSE2 ones.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mathx/simd.hpp"

namespace csdac::mathx::testing {

enum class Fn { kLog, kExp, kSin, kCos };

/// out[i] = fn(in[i]) through the Ops instance; n must be a multiple of
/// Ops::kLanes.
template <class Ops>
void apply(Fn fn, const double* in, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; i += Ops::kLanes) {
    const typename Ops::F64 x = Ops::floadu(in + i);
    typename Ops::F64 y;
    switch (fn) {
      case Fn::kLog: y = log_xN<Ops>(x); break;
      case Fn::kExp: y = exp_xN<Ops>(x); break;
      case Fn::kSin: y = sin_xN<Ops>(x); break;
      default: y = cos_xN<Ops>(x); break;
    }
    Ops::fstoreu(out + i, y);
  }
}

/// count normal_batch_xN draws on streams (seed, 0 .. kLanes-1), lane l's
/// draws at out[i * kLanes + l]; out holds count * kLanes.
template <class Ops>
void normals(std::uint64_t seed, int count, double* out) {
  Xoshiro256xN<Ops> rng;
  rng.seed_streams(seed, 0);
  normal_batch_xN(rng, count, out);
}

/// The AVX2 instances (lane_apply.cpp); false when the build cannot target
/// AVX2 or the CPU lacks it. The AVX2 unit takes raw buffers only, so it
/// emits no shared inline symbol (a std::vector member, say) in AVX2 code.
bool avx2_apply(Fn fn, const double* in, double* out, std::size_t n);
bool avx2_normals(std::uint64_t seed, int count, double* out);

}  // namespace csdac::mathx::testing
