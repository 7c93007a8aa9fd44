#include "dac/lane_kernel.hpp"

#include <stdexcept>

#include "dac/lane_kernel_impl.hpp"
#include "obs/metrics.hpp"

namespace csdac::dac {

ChipWorkspaceXN::ChipWorkspaceXN(const core::DacSpec& s, int nlanes)
    : spec(s), lanes(nlanes), scalar(s) {
  spec.validate();
  if (lanes < 1 || lanes > kMaxSimdLanes) {
    throw std::invalid_argument("ChipWorkspaceXN: bad lane count");
  }
  const auto ll = static_cast<std::size_t>(lanes);
  const auto nu = static_cast<std::size_t>(spec.num_unary());
  const auto nb = static_cast<std::size_t>(spec.binary_bits);
  const auto n_codes = static_cast<std::size_t>(1) << spec.nbits;
  unary.resize(nu * ll, 0.0);
  binary.resize(nb * ll, 0.0);
  trimmed_unary.resize(nu * ll, 0.0);
  unary_prefix.resize((nu + 1) * ll, 0.0);
  binsum.resize((static_cast<std::size_t>(1) << spec.binary_bits) * ll, 0.0);
  levels.resize(n_codes * ll, 0.0);
  z.resize(nu * ll, 0.0);
  amp.resize(nu * ll, 0.0);
}

namespace detail {

LaneView lane_view(ChipWorkspaceXN& ws) {
  LaneView v;
  v.lanes = ws.lanes;
  v.num_unary = ws.spec.num_unary();
  v.binary_bits = ws.spec.binary_bits;
  v.n_codes = 1 << ws.spec.nbits;
  v.unary_weight = static_cast<double>(ws.spec.unary_weight());
  v.unary = ws.unary.data();
  v.binary = ws.binary.data();
  v.trimmed_unary = ws.trimmed_unary.data();
  v.unary_prefix = ws.unary_prefix.data();
  v.binsum = ws.binsum.data();
  v.levels = ws.levels.data();
  v.z = ws.z.data();
  v.amp = ws.amp.data();
  return v;
}

void cal_trim_lanes(ChipWorkspaceXN& ws, const CalibrationOptions& opts,
                    std::uint64_t seed, std::int64_t chip0) {
  ChipWorkspace& s = ws.scalar;
  const auto nu = static_cast<std::size_t>(ws.spec.num_unary());
  const auto nb = static_cast<std::size_t>(ws.spec.binary_bits);
  const auto ll = static_cast<std::size_t>(ws.lanes);
  s.errors.unary.resize(nu);
  s.errors.binary.resize(nb);
  for (std::size_t l = 0; l < ll; ++l) {
    for (std::size_t i = 0; i < nu; ++i) {
      s.errors.unary[i] = ws.unary[i * ll + l];
    }
    for (std::size_t k = 0; k < nb; ++k) {
      s.errors.binary[k] = ws.binary[k * ll + l];
    }
    mathx::stream_rng_into(
        s.rng, seed,
        2 * (static_cast<std::uint64_t>(chip0) + l) + 1);
    calibrate_into(ws.spec, s.errors, opts, s.rng, s.trimmed);
    for (std::size_t i = 0; i < nu; ++i) {
      ws.trimmed_unary[i * ll + l] = s.trimmed.unary[i];
    }
  }
}

void throw_bad_sigma() {
  throw std::invalid_argument("draw_source_errors: sigma < 0");
}

void throw_degenerate() {
  throw std::invalid_argument("analyze: degenerate x");
}

void throw_flat() {
  throw std::invalid_argument("analyze_transfer: flat");
}

namespace {

/// simd.* instruments, registered eagerly (all three dispatch counters
/// exist in every exposition, so check_metrics.py can assert "exactly one
/// is positive").
struct SimdMetrics {
  obs::Counter& dispatch_scalar;
  obs::Counter& dispatch_sse2;
  obs::Counter& dispatch_avx2;
  obs::Counter& lanes_utilized;
  obs::Counter& chips_scalar_tail;
  obs::Gauge& lane_width;

  static SimdMetrics& get() {
    static SimdMetrics m{
        obs::Registry::global().counter(
            "simd.dispatch.scalar", "MC runs dispatched to the scalar kernel"),
        obs::Registry::global().counter(
            "simd.dispatch.sse2", "MC runs dispatched to the SSE2 kernel"),
        obs::Registry::global().counter(
            "simd.dispatch.avx2", "MC runs dispatched to the AVX2 kernel"),
        obs::Registry::global().counter(
            "simd.lanes_utilized",
            "chips evaluated through SIMD vector lanes"),
        obs::Registry::global().counter(
            "simd.chips_scalar_tail",
            "chips evaluated by the scalar kernel (remainder blocks or "
            "scalar dispatch)"),
        obs::Registry::global().gauge(
            "simd.lane_width", "lanes of the most recently dispatched kernel"),
    };
    return m;
  }
};

}  // namespace

void record_lane_run(const LaneKernel& k, std::int64_t vector_chips,
                     std::int64_t scalar_tail_chips) {
  SimdMetrics& m = SimdMetrics::get();
  switch (k.backend) {
    case mathx::SimdBackend::kScalar:
      m.dispatch_scalar.add(1);
      break;
    case mathx::SimdBackend::kSse2:
      m.dispatch_sse2.add(1);
      break;
    case mathx::SimdBackend::kAvx2:
      m.dispatch_avx2.add(1);
      break;
  }
  if (vector_chips > 0) m.lanes_utilized.add(vector_chips);
  if (scalar_tail_chips > 0) m.chips_scalar_tail.add(scalar_tail_chips);
  m.lane_width.set(static_cast<double>(k.lanes));
}

}  // namespace detail

namespace {

const LaneKernel& scalar_kernel() {
  // The shared template at width 1: the scalar dispatch entry doubles as
  // the everywhere-runnable instantiation the template tests pin against
  // mc_chip_metrics (the engine's lanes==1 route bypasses it and runs
  // mc_chip_metrics directly).
  static const LaneKernel k =
      LaneKernelImpl<mathx::ScalarOps>::kernel(mathx::SimdBackend::kScalar);
  return k;
}

}  // namespace

const LaneKernel* lane_kernel(mathx::SimdBackend backend) {
  switch (backend) {
    case mathx::SimdBackend::kScalar:
      return &scalar_kernel();
    case mathx::SimdBackend::kSse2:
      return detail::lane_kernel_sse2();
    case mathx::SimdBackend::kAvx2:
      return detail::lane_kernel_avx2();
  }
  return nullptr;
}

const LaneKernel& active_lane_kernel() {
  mathx::SimdBackend b = mathx::simd_backend();
  for (;;) {
    if (const LaneKernel* k = lane_kernel(b)) return *k;
    // Downgrade to the next narrower backend compiled into this build.
    b = b == mathx::SimdBackend::kAvx2 ? mathx::SimdBackend::kSse2
                                       : mathx::SimdBackend::kScalar;
  }
}

void mc_chip_metrics_xN(const LaneKernel& k, ChipWorkspaceXN& ws,
                        double sigma_unit, std::uint64_t seed,
                        std::int64_t chip0, InlReference ref,
                        StaticSummary* out) {
  if (ws.lanes != k.lanes) {
    throw std::invalid_argument("mc_chip_metrics_xN: lane mismatch");
  }
  k.mc_block(ws, sigma_unit, seed, chip0, ref, out);
}

}  // namespace csdac::dac
