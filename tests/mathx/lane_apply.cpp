// AVX2 instances of the lane_apply.hpp drivers. Compiled with -mavx2 (see
// tests/CMakeLists.txt) and only entered after mathx::simd_detect() has
// confirmed AVX2, like src/dac/lane_kernel_avx2.cpp.
#include "lane_apply.hpp"

#if defined(__AVX2__)
#include "mathx/simd_avx2.hpp"
#endif

namespace csdac::mathx::testing {

bool avx2_apply(Fn fn, const double* in, double* out, std::size_t n) {
#if defined(__AVX2__)
  if (simd_detect() < SimdBackend::kAvx2) return false;
  apply<Avx2Ops>(fn, in, out, n);
  return true;
#else
  (void)fn, (void)in, (void)out, (void)n;
  return false;
#endif
}

bool avx2_normals(std::uint64_t seed, int count, double* out) {
#if defined(__AVX2__)
  if (simd_detect() < SimdBackend::kAvx2) return false;
  normals<Avx2Ops>(seed, count, out);
  return true;
#else
  (void)seed, (void)count, (void)out;
  return false;
#endif
}

}  // namespace csdac::mathx::testing
