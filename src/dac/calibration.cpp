#include "dac/calibration.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "dac/lane_kernel.hpp"
#include "dac/static_analysis.hpp"

namespace csdac::dac {

void CalibrationOptions::validate() const {
  if (!(range_lsb > 0.0) || bits < 1 || bits > 20 ||
      !(measure_noise_lsb >= 0.0)) {
    throw std::invalid_argument("calibrate: bad options");
  }
}

SourceErrors calibrate(const core::DacSpec& spec, const SourceErrors& chip,
                       const CalibrationOptions& opts,
                       mathx::Xoshiro256& rng) {
  opts.validate();
  SourceErrors out = chip;
  const double nominal = spec.unary_weight();
  const double half_range = 0.5 * opts.range_lsb;
  const double step = opts.step_lsb();
  for (double& w : out.unary) {
    // Measured error (with measurement noise), trimmed toward zero.
    const double measured =
        (w - nominal) +
        (opts.measure_noise_lsb > 0.0
             ? mathx::normal(rng, 0.0, opts.measure_noise_lsb)
             : 0.0);
    // The cal DAC applies the nearest quantized correction in range.
    const double trim =
        -std::clamp(std::round(measured / step) * step, -half_range,
                    half_range);
    w += trim;
  }
  return out;
}

namespace {

void check_calibration_mc(int chips, int threads) {
  if (chips <= 0) throw std::invalid_argument("calibration_yield_mc: chips");
  if (threads < 0) {
    throw std::invalid_argument("calibration_yield_mc: threads < 0");
  }
}

}  // namespace

CalibratedYield calibration_yield_mc(const core::DacSpec& spec,
                                     double sigma_unit,
                                     const CalibrationOptions& opts,
                                     int chips, std::uint64_t seed,
                                     double inl_limit, int threads) {
  check_calibration_mc(chips, threads);
  // The driver tallies the post-calibration passes; the pre-calibration
  // ones are summed alongside.
  std::atomic<std::int64_t> pass_before{0};
  const mathx::YieldRun r = detail::run_lane_blocks(
      spec, {.max_items = chips, .batch = chips}, threads, /*unit=*/1,
      [&](const LaneKernel& k, ChipWorkspaceXN& ws, std::int64_t lo) {
        bool b[kMaxSimdLanes], a[kMaxSimdLanes];
        k.cal_block(ws, sigma_unit, opts, seed, lo, inl_limit, b, a);
        std::int64_t before = 0, after = 0;
        for (int l = 0; l < k.lanes; ++l) {
          before += b[l] ? 1 : 0;
          after += a[l] ? 1 : 0;
        }
        if (before) pass_before.fetch_add(before, std::memory_order_relaxed);
        return after;
      });
  CalibratedYield y;
  y.chips = chips;
  y.yield_before = static_cast<double>(pass_before.load()) / chips;
  y.yield_after = static_cast<double>(r.passed) / chips;
  y.stats = r.stats;
  return y;
}

}  // namespace csdac::dac
