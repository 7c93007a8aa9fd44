#include "dac/lane_kernel.hpp"

#include <atomic>
#include <stdexcept>

#include "dac/lane_kernel_impl.hpp"
#include "obs/metrics.hpp"
#if defined(__SSE2__)
#include "mathx/simd_sse2.hpp"
#endif

namespace csdac::dac {

ChipWorkspaceXN::ChipWorkspaceXN(const core::DacSpec& s, int nlanes)
    : spec(s), lanes(nlanes) {
  spec.validate();
  if (lanes < 1 || lanes > kMaxSimdLanes) {
    throw std::invalid_argument("ChipWorkspaceXN: bad lane count");
  }
  const auto ll = static_cast<std::size_t>(lanes);
  const auto nu = static_cast<std::size_t>(spec.num_unary());
  const auto nb = static_cast<std::size_t>(spec.binary_bits);
  unary.resize(nu * ll, 0.0);
  binary.resize(nb * ll, 0.0);
  trimmed_unary.resize(nu * ll, 0.0);
  unary_prefix.resize((nu + 1) * ll, 0.0);
  binsum.resize((static_cast<std::size_t>(1) << spec.binary_bits) * ll, 0.0);
  z.resize((nu + nb) * ll, 0.0);
  amp.resize(nu * ll, 0.0);
  const std::size_t n = std::size_t{1} << spec.nbits;
  double sxx;
  if (n <= (std::size_t{1} << 17)) {
    const auto m = static_cast<std::int64_t>(n) - 1;
    x_sum = static_cast<double>(m * (m + 1) / 2);
    sxx = static_cast<double>(m * (m + 1) * (2 * m + 1) / 6);
  } else {
    x_sum = 0.0;
    sxx = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto x = static_cast<double>(i);
      x_sum += x;
      sxx += x * x;
    }
  }
  x_denom = static_cast<double>(n) * sxx - x_sum * x_sum;
}

namespace detail {

LaneView lane_view(ChipWorkspaceXN& ws) {
  LaneView v;
  v.lanes = ws.lanes;
  v.num_unary = ws.spec.num_unary();
  v.binary_bits = ws.spec.binary_bits;
  v.n_codes = 1 << ws.spec.nbits;
  v.unary_weight = static_cast<double>(ws.spec.unary_weight());
  v.x_sum = ws.x_sum;
  v.x_denom = ws.x_denom;
  v.unary = ws.unary.data();
  v.binary = ws.binary.data();
  v.trimmed_unary = ws.trimmed_unary.data();
  v.unary_prefix = ws.unary_prefix.data();
  v.binsum = ws.binsum.data();
  v.z = ws.z.data();
  v.amp = ws.amp.data();
  return v;
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

}  // namespace detail

namespace {

const LaneKernel* scalar_kernel() {
  // The shared template at width 1: the scalar dispatch entry, the kernel
  // of every short block a wider run leaves, and the everywhere-runnable
  // instantiation the template tests pin against the allocating chain.
  static const LaneKernel k =
      LaneKernelImpl<mathx::ScalarOps>::kernel(mathx::SimdBackend::kScalar);
  return &k;
}

const LaneKernel* sse2_kernel() {
#if defined(__SSE2__)
  static const LaneKernel k =
      LaneKernelImpl<mathx::Sse2Ops>::kernel(mathx::SimdBackend::kSse2);
  return &k;
#else
  return nullptr;
#endif
}

constexpr mathx::SimdKernels<const LaneKernel*> kLaneKernels{
    {&scalar_kernel, &sse2_kernel, &detail::lane_kernel_avx2}};

/// simd.* and dac.decide.* instruments, registered eagerly (both decide
/// counters exist wherever a kernel ran, so check_metrics.py can bound the
/// exact-walk share).
struct SimdMetrics {
  obs::Counter& lanes_utilized;
  obs::Counter& chips_scalar_tail;
  obs::Gauge& lane_width;
  obs::Counter& decide_lanes;
  obs::Counter& decide_exact_lanes;

  static SimdMetrics& get() {
    static SimdMetrics m{
        obs::Registry::global().counter(
            "simd.lanes_utilized",
            "chips evaluated through SIMD vector lanes"),
        obs::Registry::global().counter(
            "simd.chips_scalar_tail",
            "chips evaluated by the scalar kernel (remainder blocks or "
            "scalar dispatch)"),
        obs::Registry::global().gauge(
            "simd.lane_width", "lanes of the most recently dispatched kernel"),
        obs::Registry::global().counter(
            "dac.decide.lanes", "chip verdicts decided by the lane kernels"),
        obs::Registry::global().counter(
            "dac.decide.exact_lanes",
            "chip verdicts taken from the exact code walk (metric within "
            "its rounding bound of the limit)"),
    };
    return m;
  }
};

/// Records one dispatched lane-block run in the simd.* metrics.
void record_lane_run(const LaneKernel& k, std::int64_t vector_chips,
                     std::int64_t scalar_tail_chips) {
  mathx::record_dispatch(k.backend);
  SimdMetrics& m = SimdMetrics::get();
  if (vector_chips > 0) m.lanes_utilized.add(vector_chips);
  if (scalar_tail_chips > 0) m.chips_scalar_tail.add(scalar_tail_chips);
  m.lane_width.set(static_cast<double>(k.lanes));
}

}  // namespace

namespace detail {

void count_decisions(int lanes, int exact_lanes) {
  SimdMetrics& m = SimdMetrics::get();
  m.decide_lanes.add(lanes);
  if (exact_lanes > 0) m.decide_exact_lanes.add(exact_lanes);
}

}  // namespace detail

const LaneKernel* lane_kernel(mathx::SimdBackend backend) {
  return kLaneKernels.get(backend);
}

const LaneKernel& active_lane_kernel() { return *kLaneKernels.select(); }

namespace detail {

mathx::YieldRun run_lane_blocks(const core::DacSpec& spec,
                                const mathx::EarlyStopOptions& opts,
                                int threads, int unit,
                                const LaneBlockFn& block) {
  const LaneKernel& k = active_lane_kernel();
  const LaneKernel& k1 = *scalar_kernel();
  const std::int64_t width = std::int64_t{unit} * k.lanes;
  std::atomic<std::int64_t> tail{0};
  const mathx::YieldRun r = mathx::run_blocks(
      opts, threads, width,
      [&spec, &k] { return ChipWorkspaceXN(spec, k.lanes); },
      [&](ChipWorkspaceXN& ws, std::int64_t lo, std::int64_t hi) {
        if (hi - lo == width) return block(k, ws, lo);
        std::int64_t passed = 0;
        for (std::int64_t c = lo; c < hi; c += unit) passed += block(k1, ws, c);
        tail.fetch_add(hi - lo, std::memory_order_relaxed);
        return passed;
      });
  const std::int64_t scalar_chips = k.lanes > 1 ? tail.load() : r.evaluated;
  record_lane_run(k, r.evaluated - scalar_chips, scalar_chips);
  return r;
}

}  // namespace detail

}  // namespace csdac::dac
