// The scalar transcendentals: the width-1 ScalarOps instances of the
// templates in transcendental.hpp, and the exp_batch dispatch. Compiled
// with -ffp-contract=off (see CMakeLists.txt), like every translation unit
// that instantiates them.
#include "mathx/transcendental.hpp"

#include "mathx/simd.hpp"
#if defined(__SSE2__)
#include "mathx/simd_sse2.hpp"
#endif

namespace csdac::mathx {

double log(double x) { return log_xN<ScalarOps>(x); }

double exp(double x) { return exp_xN<ScalarOps>(x); }

double sin(double x) { return sin_xN<ScalarOps>(x); }

double cos(double x) { return cos_xN<ScalarOps>(x); }

void exp_batch(std::span<double> x) {
  const SimdBackend b = simd_backend();
  if (b == SimdBackend::kAvx2) {
    if (const detail::ExpLanesFn f = detail::exp_lanes_avx2()) {
      return f(x.data(), x.size());
    }
  }
#if defined(__SSE2__)
  if (b >= SimdBackend::kSse2) {
    return detail::exp_lanes<Sse2Ops>(x.data(), x.size());
  }
#endif
  detail::exp_lanes<ScalarOps>(x.data(), x.size());
}

}  // namespace csdac::mathx
