#include "dac/calibration.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "dac/lane_kernel.hpp"
#include "dac/static_analysis.hpp"

namespace csdac::dac {

SourceErrors calibrate(const core::DacSpec& spec, const SourceErrors& chip,
                       const CalibrationOptions& opts,
                       mathx::Xoshiro256& rng) {
  SourceErrors out;
  calibrate_into(spec, chip, opts, rng, out);
  return out;
}

void CalibrationOptions::validate() const {
  if (!(range_lsb > 0.0) || bits < 1 || bits > 20 ||
      !(measure_noise_lsb >= 0.0)) {
    throw std::invalid_argument("calibrate: bad options");
  }
}

void calibrate_into(const core::DacSpec& spec, const SourceErrors& chip,
                    const CalibrationOptions& opts, mathx::Xoshiro256& rng,
                    SourceErrors& out) {
  opts.validate();
  out.unary = chip.unary;
  out.binary = chip.binary;
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
}

CalChipResult cal_chip_passes(ChipWorkspace& ws, double sigma_unit,
                              const CalibrationOptions& opts,
                              std::uint64_t seed, std::int64_t chip,
                              double inl_limit) {
  detail::count_chip_eval();
  const auto idx = static_cast<std::uint64_t>(chip);
  mathx::stream_rng_into(ws.rng, seed, 2 * idx);
  draw_source_errors_into(ws.spec, sigma_unit, ws.rng, ws.errors);
  transfer_into(ws.spec, ws.errors, ws);
  CalChipResult r;
  r.pass_before = analyze_levels_summary(ws.levels).inl_max < inl_limit;
  mathx::stream_rng_into(ws.rng, seed, 2 * idx + 1);
  calibrate_into(ws.spec, ws.errors, opts, ws.rng, ws.trimmed);
  transfer_into(ws.spec, ws.trimmed, ws);
  r.pass_after = analyze_levels_summary(ws.levels).inl_max < inl_limit;
  return r;
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

CalibratedYield calibration_yield_mc_legacy(const core::DacSpec& spec,
                                            double sigma_unit,
                                            const CalibrationOptions& opts,
                                            int chips, std::uint64_t seed,
                                            double inl_limit, int threads) {
  check_calibration_mc(chips, threads);
  std::atomic<int> pass_before{0}, pass_after{0};
  CalibratedYield y;
  y.chips = chips;
  y.stats = mathx::parallel_for_indexed(chips, threads, [&](int,
                                                            std::int64_t c) {
    detail::count_chip_eval();
    const auto idx = static_cast<std::uint64_t>(c);
    mathx::Xoshiro256 draw_rng = mathx::stream_rng(seed, 2 * idx);
    mathx::Xoshiro256 cal_rng = mathx::stream_rng(seed, 2 * idx + 1);
    const SourceErrors raw = draw_source_errors(spec, sigma_unit, draw_rng);
    const StaticMetrics before =
        analyze_transfer(SegmentedDac(spec, raw).transfer());
    if (before.inl_max < inl_limit) {
      pass_before.fetch_add(1, std::memory_order_relaxed);
    }
    const SourceErrors fixed = calibrate(spec, raw, opts, cal_rng);
    const StaticMetrics after =
        analyze_transfer(SegmentedDac(spec, fixed).transfer());
    if (after.inl_max < inl_limit) {
      pass_after.fetch_add(1, std::memory_order_relaxed);
    }
  });
  y.yield_before = static_cast<double>(pass_before.load()) / chips;
  y.yield_after = static_cast<double>(pass_after.load()) / chips;
  return y;
}

CalibratedYield calibrated_inl_yield(const core::DacSpec& spec,
                                     double sigma_unit,
                                     const CalibrationOptions& opts,
                                     int chips, std::uint64_t seed,
                                     double inl_limit, int threads) {
  return calibration_yield_mc(spec, sigma_unit, opts, chips, seed, inl_limit,
                              threads);
}

}  // namespace csdac::dac
