#include "dac/spectrum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "arch/dyn_sim.hpp"
#include "dac/static_analysis.hpp"
#include "runtime/job.hpp"

namespace csdac::dac {
namespace {

std::vector<double> tone(std::size_t n, int bin, double amp,
                         double dc = 0.0) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = dc + amp * std::sin(2.0 * std::numbers::pi * bin *
                               static_cast<double>(i) / n);
  }
  return v;
}

TEST(Spectrum, PureToneHasHugeSfdr) {
  auto v = tone(1024, 53, 1.0, 2.0);
  const auto r = analyze_spectrum(v, 300e6);
  EXPECT_EQ(r.fund_bin, 53u);
  EXPECT_GT(r.sfdr_db, 200.0);
  EXPECT_NEAR(r.freq_hz[53], 300e6 * 53.0 / 1024.0, 1.0);
}

TEST(Spectrum, TwoTonesSfdrReadsTheirRatio) {
  auto v = tone(1024, 53, 1.0);
  const auto spur = tone(1024, 200, 0.001);  // -60 dBc
  for (std::size_t i = 0; i < v.size(); ++i) v[i] += spur[i];
  const auto r = analyze_spectrum(v, 300e6);
  EXPECT_NEAR(r.sfdr_db, 60.0, 0.1);
  EXPECT_NEAR(r.mag_db[200], -60.0, 0.1);
  EXPECT_NEAR(r.mag_db[53], 0.0, 1e-6);
}

TEST(Spectrum, SndrAccountsForAllBins) {
  auto v = tone(1024, 53, 1.0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] += 0.001 * std::sin(2.0 * std::numbers::pi * 200.0 * i / 1024.0) +
            0.001 * std::sin(2.0 * std::numbers::pi * 301.0 * i / 1024.0);
  }
  const auto r = analyze_spectrum(v, 300e6);
  // Two -60 dBc spurs: SNDR ~ 57 dB, SFDR ~ 60 dB.
  EXPECT_NEAR(r.sndr_db, 57.0, 0.3);
  EXPECT_NEAR(r.sfdr_db, 60.0, 0.3);
  EXPECT_NEAR(r.enob, (r.sndr_db - 1.76) / 6.02, 1e-9);
}

TEST(Spectrum, ThdPicksHarmonics) {
  auto v = tone(4096, 53, 1.0);
  const auto h2 = tone(4096, 106, 0.01);   // -40 dBc second harmonic
  const auto h3 = tone(4096, 159, 0.003);  // ~-50 dBc third
  for (std::size_t i = 0; i < v.size(); ++i) v[i] += h2[i] + h3[i];
  const auto r = analyze_spectrum(v, 300e6);
  const double expected =
      10.0 * std::log10(0.01 * 0.01 / 2 + 0.003 * 0.003 / 2) -
      10.0 * std::log10(0.5);
  EXPECT_NEAR(r.thd_db, expected, 0.2);
}

TEST(Spectrum, NonPow2RecordWorks) {
  // 50 periods in 1000 samples — the paper's Fig. 8 capture style,
  // exercising the Bluestein path.
  auto v = tone(1000, 50, 1.0);
  const auto r = analyze_spectrum(v, 300e6);
  EXPECT_EQ(r.fund_bin, 50u);
  EXPECT_GT(r.sfdr_db, 150.0);
}

TEST(Spectrum, MismatchLimitedDacSpectrum) {
  // End-to-end: 12-bit chips with unit-source mismatch driven by a
  // coherent sine show a static, mismatch-limited SFDR below the
  // ideal-quantization-only converter's. At the eq. (1) design sigma
  // (0.00263) the mismatch spurs sit at the quantization floor, so one
  // chip's SFDR lands on either side of the ideal one; at sigma_unit =
  // 0.02 the mismatch spurs dominate every chip, and the statistic is
  // over 32 chips drawn in turn from one seed.
  core::DacSpec spec;
  mathx::Xoshiro256 rng(77);
  const auto codes = sine_codes(spec, 2048, 53);

  auto run = [&](double sigma) {
    const SourceErrors chip = sigma > 0.0
                                  ? draw_source_errors(spec, sigma, rng)
                                  : ideal_sources(spec);
    DynamicParams p;
    p.oversample = 2;  // static-limited test: dynamics negligible
    p.tau = 1e-12;
    const auto conv = runtime::spectrum_converter(spec, chip, p, false);
    // One settled sample per period: the in-band spectrum of the
    // 300 MS/s converter, free of zero-order-hold images.
    const arch::CodeRecord record(conv.sim.array(), codes);
    return analyze_spectrum(conv.sim.period_end_samples(record, conv.timing),
                            p.fs);
  };
  const double ideal = run(0.0).sfdr_db;
  std::vector<double> sfdr;
  for (int c = 0; c < 32; ++c) sfdr.push_back(run(0.02).sfdr_db);
  std::sort(sfdr.begin(), sfdr.end());
  EXPECT_LT(sfdr.back(), ideal);       // every chip below the ideal one
  EXPECT_LT(sfdr[16], ideal - 6.0);    // the median by more than 6 dB
  EXPECT_GT(sfdr.front(), 60.0);       // and still a 12-bit-class chip
}

TEST(Spectrum, DifferentialCancelsEvenOrderDroopDistortion) {
  // Finite output impedance produces a compressive (even-order) droop on
  // each rail; the differential output cancels HD2, so its SFDR must be
  // far better than single-ended — the [7,8] argument for differential
  // operation that the paper's Fig. 8 relies on.
  core::DacSpec spec;
  DynamicParams p;
  p.oversample = 2;
  p.tau = 1e-12;
  p.rout_unit = 50e6;  // strong droop
  auto sample = [&](bool differential) {
    const auto conv = runtime::spectrum_converter(spec, ideal_sources(spec),
                                                  p, differential);
    const arch::CodeRecord record(conv.sim.array(),
                                  sine_codes(spec, 2048, 53));
    return analyze_spectrum(conv.sim.period_end_samples(record, conv.timing),
                            p.fs);
  };
  const auto se = sample(false);
  const auto diff = sample(true);
  EXPECT_GT(diff.sfdr_db, se.sfdr_db + 15.0);
  // Single-ended: the worst spur is HD2.
  EXPECT_NEAR(static_cast<double>(se.fund_bin) * 2.0,
              static_cast<double>(se.fund_bin * 2), 0.0);
}

TEST(Spectrum, HannWindowRecoversNonCoherentCapture) {
  // A non-coherent tone (non-integer cycles) leaks across the whole
  // spectrum under a rectangular window; a Hann window with guard bins
  // restores a usable SFDR measurement.
  const std::size_t n = 1024;
  std::vector<double> v(n);
  const double cycles = 53.37;  // deliberately non-integer
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(2.0 * std::numbers::pi * cycles * i / n) +
           1e-3 * std::sin(2.0 * std::numbers::pi * 200.0 * i / n);
  }
  SpectrumOptions rect;
  const auto r_rect = analyze_spectrum(v, 300e6, rect);
  // Hann's -31 dB first sidelobes still hide a -60 dBc spur; the 4-term
  // Blackman-Harris (-92 dB sidelobes) with a wider guard exposes it.
  SpectrumOptions hann;
  hann.window = mathx::Window::kHann;
  hann.guard_bins = 3;
  const auto r_hann = analyze_spectrum(v, 300e6, hann);
  SpectrumOptions bh;
  bh.window = mathx::Window::kBlackmanHarris4;
  bh.guard_bins = 5;
  bh.dc_bins = 5;  // the window spreads residual DC over its mainlobe
  const auto r_bh = analyze_spectrum(v, 300e6, bh);
  EXPECT_LT(r_rect.sfdr_db, 35.0);   // leakage destroys the rect estimate
  EXPECT_GT(r_hann.sfdr_db, r_rect.sfdr_db + 5.0);
  EXPECT_NEAR(r_bh.sfdr_db, 60.0, 4.0);
}

TEST(Spectrum, JitterSndrTracksApertureTheory) {
  // Clock-jitter noise (paper ref. [6]): SNR ~ -20*log10(2*pi*fin*sigma_j)
  // for impulse sampling. The ZOH + finite-settling waveform shapes the
  // constant, but the measured SNDR must track the theory's slope (-6 dB
  // per jitter doubling) and stay within a fixed offset of it.
  core::DacSpec spec;
  const double fin = 363.0 / 2048.0 * 300e6;
  auto sndr_at = [&](double sigma_j) {
    dac::DynamicParams p;
    p.fs = 300e6;
    p.oversample = 16;
    p.tau = 0.3e-9;
    p.jitter_sigma = sigma_j;
    const auto conv =
        runtime::spectrum_converter(spec, ideal_sources(spec), p, false);
    mathx::Xoshiro256 rng(7);
    const arch::CodeRecord record(conv.sim.array(),
                                  sine_codes(spec, 2048, 363));
    const auto wave = conv.sim.waveform(
        record, conv.timing,
        arch::draw_period_jitter(record.size(), p.jitter_sigma, rng));
    SpectrumOptions o;
    o.max_freq = 150e6;
    return analyze_spectrum(wave, p.fs * p.oversample, o).sndr_db;
  };
  double prev = 1e9;
  for (double sj : {5e-12, 20e-12, 50e-12}) {
    const double sndr = sndr_at(sj);
    const double theory = -20.0 * std::log10(2.0 * M_PI * fin * sj);
    EXPECT_LT(sndr, prev);                 // monotone degradation
    EXPECT_NEAR(sndr, theory, 8.0) << "sigma_j = " << sj;
    prev = sndr;
  }
}

TEST(Spectrum, InputValidation) {
  EXPECT_THROW(analyze_spectrum({1.0, 2.0}, 1e6), std::invalid_argument);
  auto v = tone(64, 5, 1.0);
  EXPECT_THROW(analyze_spectrum(v, 0.0), std::invalid_argument);
  EXPECT_THROW(analyze_spectrum(v, std::nan("")), std::invalid_argument);
}

TEST(Spectrum, OptionsValidateRejectsBadFields) {
  auto v = tone(64, 5, 1.0);
  SpectrumOptions o;
  o.guard_bins = -1;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  EXPECT_THROW(analyze_spectrum(v, 1e6, o), std::invalid_argument);
  o = SpectrumOptions{};
  o.dc_bins = -1;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = SpectrumOptions{};
  o.harmonics = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = SpectrumOptions{};
  o.harmonics = 5000;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = SpectrumOptions{};
  o.max_freq = -1.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = SpectrumOptions{};
  o.max_freq = std::numeric_limits<double>::infinity();
  EXPECT_THROW(o.validate(), std::invalid_argument);
  EXPECT_NO_THROW(SpectrumOptions{}.validate());
}

TEST(Spectrum, MaxFreqBelowFundamentalThrows) {
  // fundamental at bin 53 of 1024 at 300 MHz -> 15.5 MHz; an analysis
  // band capped at 10 MHz cannot see it and must say so instead of
  // silently reporting a spur-free band.
  auto v = tone(1024, 53, 1.0);
  SpectrumOptions o;
  o.max_freq = 10e6;
  EXPECT_THROW(analyze_spectrum(v, 300e6, o, 53), std::invalid_argument);
  // The same record passes once the band reaches past the fundamental.
  o.max_freq = 20e6;
  EXPECT_NO_THROW(analyze_spectrum(v, 300e6, o, 53));
}

TEST(Spectrum, FundamentalInsideDcExclusionThrows) {
  auto v = tone(1024, 3, 1.0);
  SpectrumOptions o;
  o.dc_bins = 4;  // swallows bin 3
  EXPECT_THROW(analyze_spectrum(v, 300e6, o, 3), std::invalid_argument);
  o.dc_bins = 2;
  EXPECT_NO_THROW(analyze_spectrum(v, 300e6, o, 3));
}

TEST(Spectrum, FundamentalGuardMustNotSwallowDcLeakage) {
  // A strong component right above DC (bin 1) with the fundamental at
  // bin 2 and a wide guard band: the guard must clamp at the DC
  // exclusion instead of counting bin 1 (and bin 0) as signal power.
  const std::size_t n = 256;
  auto v = tone(n, 2, 1.0);
  const auto near_dc = tone(n, 1, 10.0);  // 20 dB above the fundamental
  for (std::size_t i = 0; i < n; ++i) v[i] += near_dc[i];
  const auto spur = tone(n, 30, 0.01);  // -40 dBc reference spur
  for (std::size_t i = 0; i < n; ++i) v[i] += spur[i];
  SpectrumOptions o;
  o.guard_bins = 2;
  o.dc_bins = 1;  // bin 1 is "DC junk", bin 2 is the signal
  const auto r = analyze_spectrum(v, 1e6, o, 2);
  // Tone power must reflect the unit-amplitude fundamental alone: the
  // known -40 dBc spur reads -40 dB. If the guard window leaked the 10x
  // near-DC component into p_fund it would read -60 dB instead.
  EXPECT_NEAR(r.mag_db[30], -40.0, 0.5);
  EXPECT_NEAR(r.sfdr_db, 40.0, 0.5);
}

TEST(Spectrum, HarmonicAliasingFoldsPastNyquist) {
  // Fundamental at bin 100 of 256: its 2nd harmonic (bin 200) lives past
  // Nyquist (128) and must fold back to bin 256 - 200 = 56 in the THD
  // accumulation.
  const std::size_t n = 256;
  auto v = tone(n, 100, 1.0);
  const auto h2 = tone(n, 56, 0.01);  // folded 2nd harmonic, -40 dBc
  for (std::size_t i = 0; i < n; ++i) v[i] += h2[i];
  SpectrumOptions o;
  o.harmonics = 3;
  const auto r = analyze_spectrum(v, 1e6, o, 100);
  EXPECT_NEAR(r.thd_db, -40.0, 0.5);
  EXPECT_NEAR(r.sfdr_db, 40.0, 0.5);
}

TEST(Spectrum, MetricsEntryMatchesTheCopyingFftAndWindowGain) {
  // spectrum_metrics runs the real-input FFT on power-of-two records and
  // dft() on other lengths, and takes the coherent gain from its own
  // window sum. The bins must be those routines' on a copy, bit for bit,
  // the real-input ones within 1e-12 of the fundamental of dft()'s, and
  // the dBFS must follow window_coherent_gain().
  for (const std::size_t n : {std::size_t{1024}, std::size_t{768}}) {
    auto v = tone(n, 37, 0.8, 0.3);
    const auto h3 = tone(n, 111, 2e-3);
    for (std::size_t i = 0; i < n; ++i) v[i] += h3[i];
    for (const auto win : {mathx::Window::kRect, mathx::Window::kHann,
                           mathx::Window::kBlackmanHarris4}) {
      SCOPED_TRACE(::testing::Message() << "n " << n << " window "
                                        << static_cast<int>(win));
      SpectrumOptions o;
      o.window = win;
      o.guard_bins = win == mathx::Window::kRect ? 0 : 4;
      std::vector<double> power;
      const SpectrumMetrics m = spectrum_metrics(v, 300e6, o, 0, power);

      const auto w = mathx::make_window(win, n);
      double wsum = 0.0, vwsum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        wsum += w[i];
        vwsum += v[i] * w[i];
      }
      std::vector<double> xr(n);
      std::vector<mathx::Cplx> x(n);
      for (std::size_t i = 0; i < n; ++i) {
        xr[i] = (v[i] - vwsum / wsum) * w[i];
        x[i] = mathx::Cplx(xr[i], 0.0);
      }
      const auto full = mathx::dft(x);
      std::vector<mathx::Cplx> spec = full;
      if (mathx::is_pow2(n)) mathx::fft_real_pow2(xr, spec);
      const auto bin_power = [n](const mathx::Cplx& c, std::size_t k) {
        const double scale = (k == 0 || 2 * k == n) ? 1.0 : 2.0;
        const double inv_n = 1.0 / static_cast<double>(n);
        const double re = c.real() * inv_n, im = c.imag() * inv_n;
        return scale * (re * re + im * im);
      };
      ASSERT_EQ(power.size(), n / 2 + 1);
      for (std::size_t k = 0; k < power.size(); ++k) {
        ASSERT_EQ(power[k], bin_power(spec[k], k)) << "bin " << k;
        EXPECT_NEAR(power[k], bin_power(full[k], k), 1e-12 * m.fund_power)
            << "bin " << k;
      }
      const double fund_amp = std::sqrt(2.0 * m.fund_power) /
                              mathx::window_coherent_gain(win, n);
      double vmax = v[0], vmin = v[0];
      for (double x_i : v) {
        vmax = std::max(vmax, x_i);
        vmin = std::min(vmin, x_i);
      }
      EXPECT_EQ(m.fund_db_fs,
                20.0 * std::log10(fund_amp / (0.5 * (vmax - vmin))));

      const SpectrumResult r = analyze_spectrum(v, 300e6, o);
      EXPECT_EQ(r.fund_bin, m.fund_bin);
      EXPECT_EQ(r.fund_power, m.fund_power);
      EXPECT_EQ(r.sfdr_db, m.sfdr_db);
      EXPECT_EQ(r.sndr_db, m.sndr_db);
      EXPECT_EQ(r.thd_db, m.thd_db);
      EXPECT_EQ(r.enob, m.enob);
      EXPECT_EQ(r.fund_db_fs, m.fund_db_fs);
      ASSERT_EQ(r.mag_db.size(), power.size());
      EXPECT_EQ(r.mag_db[m.fund_bin],
                10.0 * std::log10(power[m.fund_bin] / m.fund_power));
    }
  }
}

}  // namespace
}  // namespace csdac::dac
