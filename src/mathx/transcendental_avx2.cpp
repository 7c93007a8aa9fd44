// AVX2 instance of exp_batch's lane loop. Compiled with -mavx2 (see
// CMakeLists.txt) and entered only through exp_batch's dispatch, after
// simd_backend() has confirmed AVX2. It emits only the Avx2Ops template
// instances (unique symbols), never a shared inline function, so no AVX2
// code can stand in for a baseline copy elsewhere in the program. Without
// compiler AVX2 support the getter returns nullptr and the dispatch falls
// back to SSE2.
#include "mathx/transcendental.hpp"

#if defined(__AVX2__)

#include "mathx/simd_avx2.hpp"

namespace csdac::mathx::detail {

ExpLanesFn exp_lanes_avx2() { return &exp_lanes<Avx2Ops>; }

}  // namespace csdac::mathx::detail

#else

namespace csdac::mathx::detail {

ExpLanesFn exp_lanes_avx2() { return nullptr; }

}  // namespace csdac::mathx::detail

#endif
