// Test oracle for the static Monte-Carlo chip: the allocating reference
// chain the lane kernels must reproduce bit for bit. A chip is drawn with
// draw_source_errors on its (seed, stream) RNG, built into a SegmentedDac
// and analyzed from its full transfer vector; calibration chips trim with
// calibrate in between. Everything here is serial and allocates per chip:
// it is the slow, obviously-correct path, not a second product kernel.
//
// The yield oracles (inl/dnl_yield_mc_legacy, calibration_yield_mc_legacy)
// keep the historical per-chip analysis: the INL/DNL yield one fits its
// best-fit line with mathx::fit_line (analyze_transfer_seed), independently
// of the library's analyze_transfer, so an accumulation-order slip in either
// shows up as a pass-count mismatch.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/spec.hpp"
#include "dac/calibration.hpp"
#include "dac/dac_model.hpp"
#include "dac/static_analysis.hpp"
#include "mathx/fit.hpp"
#include "mathx/parallel.hpp"
#include "mathx/rng.hpp"

namespace csdac::dac::oracle {

/// Static transfer of the chip drawn from stream (seed, stream).
inline std::vector<double> chip_transfer(const core::DacSpec& spec,
                                         double sigma_unit,
                                         std::uint64_t seed,
                                         std::uint64_t stream) {
  mathx::Xoshiro256 rng = mathx::stream_rng(seed, stream);
  return SegmentedDac(spec, draw_source_errors(spec, sigma_unit, rng))
      .transfer();
}

/// One calibration chip: mismatch from stream 2*chip, trim noise from
/// stream 2*chip + 1, max|INL| < inl_limit before and after the trim.
struct CalChip {
  bool pass_before = false;
  bool pass_after = false;
  SourceErrors trimmed;  ///< post-calibration source weights
};

inline CalChip cal_chip(const core::DacSpec& spec, double sigma_unit,
                        const CalibrationOptions& opts, std::uint64_t seed,
                        std::int64_t chip, double inl_limit) {
  const auto idx = static_cast<std::uint64_t>(chip);
  mathx::Xoshiro256 draw_rng = mathx::stream_rng(seed, 2 * idx);
  mathx::Xoshiro256 cal_rng = mathx::stream_rng(seed, 2 * idx + 1);
  const SourceErrors raw = draw_source_errors(spec, sigma_unit, draw_rng);
  CalChip r;
  r.pass_before =
      analyze_transfer(SegmentedDac(spec, raw).transfer()).inl_max <
      inl_limit;
  r.trimmed = calibrate(spec, raw, opts, cal_rng);
  r.pass_after =
      analyze_transfer(SegmentedDac(spec, r.trimmed).transfer()).inl_max <
      inl_limit;
  return r;
}

/// The historical per-chip analysis: allocates the codes ramp and the
/// INL/DNL vectors and fits the best-fit line with mathx::fit_line (extra
/// syy/R^2 passes included). Its slope and intercept accumulate in the
/// same order as analyze_transfer, so the pass/fail verdicts agree.
inline StaticMetrics analyze_transfer_seed(const std::vector<double>& levels,
                                           InlReference ref) {
  const std::size_t n = levels.size();
  StaticMetrics m;
  m.inl.resize(n);
  m.dnl.resize(n - 1);
  double gain = 1.0, offset = 0.0;
  if (ref == InlReference::kEndpoint) {
    gain = (levels.back() - levels.front()) / static_cast<double>(n - 1);
    offset = levels.front();
  } else {
    std::vector<double> codes(n);
    for (std::size_t i = 0; i < n; ++i) codes[i] = static_cast<double>(i);
    const auto fit = mathx::fit_line(codes, levels);
    gain = fit.slope;
    offset = fit.intercept;
  }
  for (std::size_t i = 0; i < n; ++i) {
    m.inl[i] = (levels[i] - (offset + gain * static_cast<double>(i))) / gain;
    m.inl_max = std::max(m.inl_max, std::abs(m.inl[i]));
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    m.dnl[i] = (levels[i + 1] - levels[i]) / gain - 1.0;
    m.dnl_max = std::max(m.dnl_max, std::abs(m.dnl[i]));
  }
  return m;
}

inline YieldEstimate yield_mc_legacy(const core::DacSpec& spec,
                                     double sigma_unit, int chips,
                                     std::uint64_t seed, double limit,
                                     bool use_inl, InlReference ref) {
  YieldEstimate y;
  y.chips = chips;
  for (int c = 0; c < chips; ++c) {
    const StaticMetrics m = analyze_transfer_seed(
        chip_transfer(spec, sigma_unit, seed, static_cast<std::uint64_t>(c)),
        ref);
    if ((use_inl ? m.inl_max : m.dnl_max) < limit) ++y.pass;
  }
  y.yield = static_cast<double>(y.pass) / chips;
  y.ci95 = mathx::wilson_half_width(y.pass, chips);
  return y;
}

/// Serial reference for inl_yield_mc: same chips, same verdicts.
inline YieldEstimate inl_yield_mc_legacy(
    const core::DacSpec& spec, double sigma_unit, int chips,
    std::uint64_t seed, double inl_limit = 0.5,
    InlReference ref = InlReference::kBestFit) {
  return yield_mc_legacy(spec, sigma_unit, chips, seed, inl_limit, true, ref);
}

/// Serial reference for dnl_yield_mc.
inline YieldEstimate dnl_yield_mc_legacy(const core::DacSpec& spec,
                                         double sigma_unit, int chips,
                                         std::uint64_t seed,
                                         double dnl_limit = 0.5) {
  return yield_mc_legacy(spec, sigma_unit, chips, seed, dnl_limit, false,
                         InlReference::kBestFit);
}

/// Serial reference for calibration_yield_mc.
inline CalibratedYield calibration_yield_mc_legacy(
    const core::DacSpec& spec, double sigma_unit,
    const CalibrationOptions& opts, int chips, std::uint64_t seed,
    double inl_limit = 0.5) {
  int pass_before = 0, pass_after = 0;
  for (int c = 0; c < chips; ++c) {
    const CalChip r = cal_chip(spec, sigma_unit, opts, seed, c, inl_limit);
    pass_before += r.pass_before ? 1 : 0;
    pass_after += r.pass_after ? 1 : 0;
  }
  CalibratedYield y;
  y.chips = chips;
  y.yield_before = static_cast<double>(pass_before) / chips;
  y.yield_after = static_cast<double>(pass_after) / chips;
  return y;
}

}  // namespace csdac::dac::oracle
