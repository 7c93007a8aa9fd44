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

namespace {

detail::ExpLanesFn exp_lanes_scalar() { return &detail::exp_lanes<ScalarOps>; }

detail::ExpLanesFn exp_lanes_sse2() {
#if defined(__SSE2__)
  return &detail::exp_lanes<Sse2Ops>;
#else
  return nullptr;
#endif
}

constexpr SimdKernels<detail::ExpLanesFn> kExpLanes{
    {&exp_lanes_scalar, &exp_lanes_sse2, &detail::exp_lanes_avx2}};

}  // namespace

void exp_batch(std::span<double> x) {
  kExpLanes.select()(x.data(), x.size());
}

}  // namespace csdac::mathx
