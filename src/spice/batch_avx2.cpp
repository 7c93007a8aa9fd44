// AVX2 instantiation of the batched MOSFET prologue. This TU is the only
// one in the library compiled with -mavx2 (csdac_avx2_unit, see
// src/CMakeLists.txt); it is safe to LINK everywhere because the wide code
// executes only after runtime detection picks the AVX2 backend.
#include "spice/batch.hpp"

#if defined(__AVX2__)
#include "mathx/simd_avx2.hpp"
#include "spice/batch_impl.hpp"
#endif

namespace csdac::spice::detail {

const MosBatchKernel* mos_kernel_avx2() {
#if defined(__AVX2__)
  static const MosBatchKernel k{mathx::SimdBackend::kAvx2,
                                mathx::Avx2Ops::kLanes,
                                &mos_prologue<mathx::Avx2Ops>};
  return &k;
#else
  return nullptr;
#endif
}

}  // namespace csdac::spice::detail
