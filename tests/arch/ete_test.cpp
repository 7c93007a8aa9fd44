// Equivalent-timing-error predictor vs the waveform-level simulator.
// Golden trend (a): at two operating points where timing error dominates
// the quantization floor, the ETE per-chip SFDR prediction tracks the
// waveform Monte-Carlo within a few dB (same timing draws on both sides),
// and the closed-form ensemble SNDR matches the measured mean.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "arch/dyn_sim.hpp"
#include "arch/ete.hpp"
#include "arch/weighting.hpp"
#include "mathx/rng.hpp"

namespace csdac::arch {
namespace {

std::vector<int> sine_codes(int nbits, int n, int cycles) {
  const int fs = (1 << nbits) - 1;
  const double mid = 0.5 * fs;
  const double amp = mid - 1.0;
  std::vector<int> codes(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    const double phase = 2.0 * M_PI * cycles * k / n;
    long v = std::lround(mid + amp * std::sin(phase));
    codes[static_cast<std::size_t>(k)] =
        static_cast<int>(std::clamp(v, 0L, static_cast<long>(fs)));
  }
  return codes;
}

TimingParams base_params() {
  TimingParams p;
  p.fs = 300e6;
  p.oversample = 16;
  p.tau = 0.25e-9;
  return p;
}

TEST(Ete, IdealTimingHasNoTimingNoise) {
  const CellArray arr(make_weighting(WeightingKind::kSegmented, 10));
  const auto codes = sine_codes(10, 256, 21);
  // Closed form: no skew and no asymmetry means no timing noise at all.
  EXPECT_EQ(ete_expected_sndr_db(arr, codes, base_params()), 300.0);

  // Per-realization record with ideal timing carries only the common
  // nominal delay, a pure LTI term: its SNDR must sit at the quantization
  // floor (~6.02 n + 1.76 = 62 dB at 10 bits), not below it.
  const auto pred = ete_predict(arr, ideal_cell_timing(arr.cells()), 1e-3,
                                300e6, CodeRecord(arr, codes), 21);
  EXPECT_EQ(pred.record.size(), codes.size());
  EXPECT_GT(pred.sndr_db, 55.0);
}

TEST(Ete, RecordScalesLinearlyWithVlsb) {
  const CellArray arr(make_weighting(WeightingKind::kBinary, 8));
  const auto codes = sine_codes(8, 128, 7);
  TimingParams p = base_params();
  p.sigma_t = 40e-12;
  auto rng = mathx::stream_rng(11, 0);
  const auto timing = draw_cell_timing(arr.cells(), p, rng);
  const CodeRecord record(arr, codes);
  const auto a = ete_predict(arr, timing, 1e-3, p.fs, record, 7);
  const auto b = ete_predict(arr, timing, 2e-3, p.fs, record, 7);
  for (std::size_t k = 0; k < a.record.size(); ++k) {
    EXPECT_NEAR(b.record[k], 2.0 * a.record[k], 1e-12) << k;
  }
  // v_lsb cancels in the dB metrics.
  EXPECT_NEAR(a.sfdr_db, b.sfdr_db, 1e-9);
  EXPECT_NEAR(a.sndr_db, b.sndr_db, 1e-9);
}

// Golden trend (a): ETE prediction vs waveform MC at two operating points
// (sigma_t = 60 ps and 150 ps at 300 MS/s), both deep in the
// timing-limited regime for a 10-bit segmented array.
TEST(EteGolden, PredictionTracksWaveformMcAtTwoOperatingPoints) {
  const int nbits = 10;
  const int n = 256;
  const int cycles = 21;
  const CellArray arr(make_weighting(WeightingKind::kSegmented, nbits));
  const auto codes = sine_codes(nbits, n, cycles);
  const CodeRecord record(arr, codes);
  const double v_lsb = 1e-3;

  for (const double sigma_t : {60e-12, 150e-12}) {
    TimingParams p = base_params();
    p.sigma_t = sigma_t;
    const ArchSimulator sim(arr, p, v_lsb);

    double mc_sndr_sum = 0.0;
    const int chips = 4;
    for (int chip = 0; chip < chips; ++chip) {
      auto rng = mathx::stream_rng(404, static_cast<std::uint64_t>(chip));
      const auto timing = draw_cell_timing(arr.cells(), p, rng);
      const auto mc = sim.spectrum(record, timing, cycles);
      const auto pred = ete_predict(arr, timing, v_lsb, p.fs, record, cycles);
      EXPECT_NEAR(pred.sfdr_db, mc.sfdr_db, 4.0)
          << "sigma_t " << sigma_t << " chip " << chip;
      EXPECT_NEAR(pred.sndr_db, mc.sndr_db, 3.0)
          << "sigma_t " << sigma_t << " chip " << chip;
      mc_sndr_sum += mc.sndr_db;
    }
    // Closed-form ensemble SNDR vs the measured mean.
    const double expected = ete_expected_sndr_db(arr, codes, p);
    EXPECT_NEAR(mc_sndr_sum / chips, expected, 3.0) << "sigma_t " << sigma_t;
  }
}

TEST(EteGolden, ClosedFormSndrDropsWithSigma) {
  const CellArray arr(make_weighting(WeightingKind::kSegmented, 10));
  const auto codes = sine_codes(10, 256, 21);
  TimingParams lo = base_params();
  lo.sigma_t = 20e-12;
  TimingParams hi = base_params();
  hi.sigma_t = 80e-12;
  // Quadrupling sigma_t costs exactly 20 log10(4) ~ 12 dB in closed form.
  EXPECT_NEAR(ete_expected_sndr_db(arr, codes, lo) -
                  ete_expected_sndr_db(arr, codes, hi),
              20.0 * std::log10(4.0), 1e-9);
}

}  // namespace
}  // namespace csdac::arch
