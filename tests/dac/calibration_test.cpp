#include "dac/calibration.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "chip_oracle.hpp"
#include "core/accuracy.hpp"
#include "dac/static_analysis.hpp"
#include "mathx/stats.hpp"

namespace csdac::dac {
namespace {

core::DacSpec spec12() { return core::DacSpec{}; }

TEST(Calibration, PerfectTrimLeavesOnlyQuantization) {
  const auto spec = spec12();
  mathx::Xoshiro256 rng(1);
  // Large mismatch, generous range, fine cal DAC.
  const auto raw = draw_source_errors(spec, 0.02, rng);
  CalibrationOptions opts;
  opts.range_lsb = 8.0;
  opts.bits = 10;
  const auto fixed = calibrate(spec, raw, opts, rng);
  const double nominal = spec.unary_weight();
  for (double w : fixed.unary) {
    EXPECT_LE(std::abs(w - nominal), 0.5 * opts.step_lsb() + 1e-12);
  }
}

TEST(Calibration, SaturatesOutsideRange) {
  const auto spec = spec12();
  mathx::Xoshiro256 rng(2);
  SourceErrors chip = ideal_sources(spec);
  chip.unary[0] += 10.0;  // way outside a +/-1 LSB range
  CalibrationOptions opts;
  opts.range_lsb = 2.0;
  opts.bits = 8;
  const auto fixed = calibrate(spec, chip, opts, rng);
  // Trim clamps at half range: residual = 10 - 1 = 9 LSB.
  EXPECT_NEAR(fixed.unary[0] - spec.unary_weight(), 9.0, 0.01);
}

TEST(Calibration, MeasurementNoiseLimitsResidual) {
  const auto spec = spec12();
  mathx::Xoshiro256 rng(3);
  const auto raw = draw_source_errors(spec, 0.01, rng);
  CalibrationOptions opts;
  opts.bits = 12;  // quantization negligible
  opts.range_lsb = 4.0;
  opts.measure_noise_lsb = 0.05;
  const auto fixed = calibrate(spec, raw, opts, rng);
  mathx::RunningStats resid;
  for (double w : fixed.unary) resid.add(w - spec.unary_weight());
  EXPECT_NEAR(resid.stddev(), 0.05, 0.01);
}

TEST(Calibration, YieldRecoveredFromUndersizedSources) {
  // The headline use-case: shrink the CS far below the eq. (2) area (4x the
  // eq. (1) sigma would tank the yield) and recover it with calibration.
  const auto spec = spec12();
  const double sigma = 4.0 * core::unit_sigma_spec(spec.nbits, 0.997);
  CalibrationOptions opts;
  opts.range_lsb = 2.0;
  opts.bits = 7;
  const auto y = calibration_yield_mc(spec, sigma, opts, 150, 77);
  EXPECT_LT(y.yield_before, 0.8);
  EXPECT_GT(y.yield_after, 0.97);
}

TEST(Calibration, MoreBitsNeverHurt) {
  const auto spec = spec12();
  const double sigma = 3.0 * core::unit_sigma_spec(spec.nbits, 0.997);
  double prev = -1.0;
  for (int bits : {2, 4, 8}) {
    CalibrationOptions opts;
    opts.range_lsb = 2.0;
    opts.bits = bits;
    const auto y = calibration_yield_mc(spec, sigma, opts, 100, 5);
    EXPECT_GE(y.yield_after + 0.03, prev) << "bits " << bits;
    prev = y.yield_after;
  }
}

TEST(Calibration, YieldMcBitIdenticalForThreads127AndReruns) {
  // calibration_yield_mc runs on the shared engine with two per-chip
  // streams (mismatch draw + measurement noise): the result must be a pure
  // function of (seed, chips) for any thread count.
  const auto spec = spec12();
  const double sigma = 4.0 * core::unit_sigma_spec(spec.nbits, 0.997);
  CalibrationOptions opts;
  opts.range_lsb = 2.0;
  opts.bits = 6;
  opts.measure_noise_lsb = 0.05;
  const auto ref = calibration_yield_mc(spec, sigma, opts, 120, 77, 0.5, 1);
  for (int threads : {1, 2, 7}) {
    for (int rerun = 0; rerun < 2; ++rerun) {
      const auto y =
          calibration_yield_mc(spec, sigma, opts, 120, 77, 0.5, threads);
      EXPECT_DOUBLE_EQ(y.yield_before, ref.yield_before)
          << "threads " << threads << " rerun " << rerun;
      EXPECT_DOUBLE_EQ(y.yield_after, ref.yield_after)
          << "threads " << threads << " rerun " << rerun;
    }
  }
  EXPECT_EQ(ref.stats.evaluated, 120);
  EXPECT_THROW(calibration_yield_mc(spec, sigma, opts, 120, 77, 0.5, -1),
               std::invalid_argument);
}

TEST(Calibration, WorkspaceKernelBitIdenticalToLegacyAcrossThreads) {
  // The lane kernel reuses ONE generator per lane for the trim noise
  // (re-seeded via stream_rng_into); that must be indistinguishable from
  // the serial two-generator reference chain (chip_oracle.hpp).
  const auto spec = spec12();
  const double sigma = 4.0 * core::unit_sigma_spec(spec.nbits, 0.997);
  CalibrationOptions opts;
  opts.measure_noise_lsb = 0.05;  // exercise the second RNG stream too
  for (int threads : {1, 2, 7}) {
    const auto ws =
        calibration_yield_mc(spec, sigma, opts, 120, 77, 0.5, threads);
    const auto legacy =
        oracle::calibration_yield_mc_legacy(spec, sigma, opts, 120, 77, 0.5);
    EXPECT_DOUBLE_EQ(ws.yield_before, legacy.yield_before)
        << "threads " << threads;
    EXPECT_DOUBLE_EQ(ws.yield_after, legacy.yield_after)
        << "threads " << threads;
  }
}

TEST(Calibration, BinarySourcesUntouched) {
  const auto spec = spec12();
  mathx::Xoshiro256 rng(9);
  const auto raw = draw_source_errors(spec, 0.01, rng);
  const auto fixed = calibrate(spec, raw, CalibrationOptions{}, rng);
  EXPECT_EQ(fixed.binary, raw.binary);
}

TEST(Calibration, RejectsBadOptions) {
  const auto spec = spec12();
  mathx::Xoshiro256 rng(1);
  const auto raw = ideal_sources(spec);
  CalibrationOptions bad;
  bad.range_lsb = 0.0;
  EXPECT_THROW(calibrate(spec, raw, bad, rng), std::invalid_argument);
  bad = CalibrationOptions{};
  bad.bits = 0;
  EXPECT_THROW(calibrate(spec, raw, bad, rng), std::invalid_argument);
  EXPECT_THROW(
      calibration_yield_mc(spec, 0.01, CalibrationOptions{}, 0, 1),
      std::invalid_argument);
}

}  // namespace
}  // namespace csdac::dac
