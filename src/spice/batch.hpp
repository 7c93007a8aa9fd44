// Batched MOSFET evaluation for array-scale netlists: identical unit cells
// (same model parameters + geometry) are grouped once per circuit and
// evaluated as SIMD lanes through the mathx::simd Ops policies, instead of
// one virtual stamp() at a time. Stamping stays in ORIGINAL device order
// using the cached evaluations, so the assembled matrix accumulates in the
// same order — and is therefore bit-identical — to the scalar path.
//
// Dispatch mirrors src/dac/lane_kernel*: the scalar and SSE2 instances
// live in batch.cpp, the AVX2 one in batch_avx2.cpp (compiled with
// -mavx2), and a mathx::SimdKernels table picks the widest one both
// compiled in and allowed by mathx::simd_backend() (CSDAC_SIMD /
// simd_force_backend override).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mathx/simd.hpp"
#include "spice/devices.hpp"

namespace csdac::spice {

/// Clamp on the body-effect sqrt argument; must equal the constant inside
/// Mosfet::evaluate().
inline constexpr double kMosMinSqrtArg = 0.05;

/// Per-group constants of the batched evaluation (everything in
/// Mosfet::evaluate() that does not vary per device within a group).
struct MosBatchConsts {
  double sign;  ///< +1 NMOS, -1 PMOS
  double vt0, gamma, phi_2f, sqrt_phi, kp;
  double w, l, m;
  double lam;  ///< params.lambda(l), fixed per group
};

/// SoA views of one group's lanes (inputs pre-multiplied by `sign`).
struct MosBatchSpans {
  const double* vd;
  const double* vg;
  const double* vs;
  const double* vb;
  const double* dvt;     ///< per-device delta_vt
  const double* bscale;  ///< per-device beta_scale
  double* vgs;
  double* vds;
  double* vbs;
  double* vt;
  double* vod;
  double* beta;
  double* sqrt_arg;
  unsigned char* swapped;
  unsigned char* clamped;
};

using MosPrologueFn = void (*)(const MosBatchConsts&, const MosBatchSpans&,
                               int count);

struct MosBatchKernel {
  mathx::SimdBackend backend = mathx::SimdBackend::kScalar;
  int lanes = 1;
  MosPrologueFn prologue = nullptr;
};

namespace detail {
/// The AVX2 kernel (batch_avx2.cpp); nullptr when the compiler could not
/// target AVX2.
const MosBatchKernel* mos_kernel_avx2();
}  // namespace detail

/// Kernel for an explicit backend (nullptr if not compiled in).
const MosBatchKernel* mos_batch_kernel(mathx::SimdBackend backend);
/// Widest kernel compiled in and allowed by mathx::simd_backend().
const MosBatchKernel& active_mos_batch_kernel();

/// Groups a circuit's MOSFETs by (type, model params, geometry) and
/// evaluates every group through the active SIMD kernel for one Newton
/// iterate, adding one to simd.dispatch.<backend> per evaluate(). The
/// solver asks eval_for() while stamping in original device order and
/// counts device_count() in the spice.device_evals metric.
class MosfetBatchSet {
 public:
  explicit MosfetBatchSet(const Circuit& ckt);

  bool empty() const { return evals_.empty(); }
  int device_count() const { return static_cast<int>(evals_.size()); }

  /// Recomputes every device's linearization at the given iterate.
  void evaluate(const EvalContext& ctx);

  /// Cached evaluation for a device of the circuit; nullptr when the
  /// device is not a batched MOSFET.
  const Mosfet::Eval* eval_for(const Device* dev) const {
    auto it = slot_of_.find(dev);
    return it == slot_of_.end() ? nullptr : &evals_[it->second];
  }

 private:
  struct Group {
    MosBatchConsts consts;
    std::vector<const Mosfet*> devs;  ///< lane order within the group
    std::vector<int> slots;           ///< index into evals_ per lane
    // SoA lanes, sized to devs.size().
    std::vector<double> vd, vg, vs, vb, dvt, bscale;
    std::vector<double> vgs, vds, vbs, vt, vod, beta, sqrt_arg;
    std::vector<unsigned char> swapped, clamped;
  };
  std::vector<Group> groups_;
  std::vector<Mosfet::Eval> evals_;
  std::unordered_map<const Device*, std::size_t> slot_of_;
};

}  // namespace csdac::spice
