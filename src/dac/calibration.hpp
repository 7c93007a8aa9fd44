// Self-calibration extension (beyond the paper, after its ref. [10]:
// Cong & Geiger's self-calibrated 14-bit DAC): each unary source is
// measured against the nominal weight and trimmed by a small calibration
// DAC. The residual error is the cal-DAC quantization plus measurement
// noise. Calibration trades the eq. (2) intrinsic-matching area for a
// trim loop: the sizing methodology then only needs to guarantee the
// much-looser PRE-calibration accuracy the trim range can absorb.
#pragma once

#include <cstdint>

#include "dac/dac_model.hpp"
#include "mathx/parallel.hpp"
#include "mathx/rng.hpp"

namespace csdac::dac {

struct CalibrationOptions {
  /// Trim range of the calibration DAC, total span in LSB of the MAIN DAC
  /// (centered on the nominal weight). Errors beyond the range saturate.
  double range_lsb = 4.0;
  /// Calibration DAC resolution: the trim is quantized to
  /// range_lsb / 2^bits steps.
  int bits = 6;
  /// rms error of the measurement used to find the trim [LSB].
  double measure_noise_lsb = 0.0;

  /// Smallest trim step [LSB].
  double step_lsb() const { return range_lsb / (1 << bits); }

  /// Throws std::invalid_argument unless range_lsb > 0, bits in [1, 20]
  /// and measure_noise_lsb >= 0.
  void validate() const;
};

/// Applies calibration to every unary source (the binary sources are left
/// untouched — their INL contribution is bounded by the segmentation).
/// Returns the post-calibration source errors. The lane kernels' trim
/// (LaneKernelImpl::trim_block) repeats its arithmetic bit for bit.
SourceErrors calibrate(const core::DacSpec& spec, const SourceErrors& chip,
                       const CalibrationOptions& opts,
                       mathx::Xoshiro256& rng);

/// Monte-Carlo INL yield with calibration in the loop.
struct CalibratedYield {
  double yield_before = 0.0;
  double yield_after = 0.0;
  int chips = 0;
  mathx::RunStats stats;  ///< engine observability (wall time, chips/s, ...)
};

/// Runs on the shared mathx::parallel engine. Chip c derives two
/// independent streams from the seed — stream_rng(seed, 2c) for the
/// mismatch draw and stream_rng(seed, 2c+1) for the calibration
/// measurement noise — so the result is bit-identical for any thread
/// count. threads = 0 uses the hardware concurrency. Runs the chip-per-lane
/// cal_block kernels; each chip's pre- and post-trim verdicts equal those
/// of the allocating draw_source_errors → calibrate → SegmentedDac::
/// transfer → analyze_transfer chain on the same two streams.
CalibratedYield calibration_yield_mc(const core::DacSpec& spec,
                                     double sigma_unit,
                                     const CalibrationOptions& opts,
                                     int chips, std::uint64_t seed,
                                     double inl_limit = 0.5, int threads = 1);

}  // namespace csdac::dac
