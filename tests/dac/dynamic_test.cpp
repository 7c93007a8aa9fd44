// The converter dynamics on the record walk (runtime::spectrum_converter
// over arch::ArchSimulator): droop, binary skew, feedthrough, jitter and
// the differential output. The walk starts a record settled at its last
// code, and every edge fires kNominalEdgeFrac * ts into its period.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <variant>

#include "arch/dyn_sim.hpp"
#include "dac/spectrum.hpp"
#include "runtime/job.hpp"

namespace csdac::dac {
namespace {

core::DacSpec paper_spec() { return core::DacSpec{}; }

DynamicParams fast_params() {
  DynamicParams p;
  p.fs = 300e6;
  p.oversample = 32;
  p.tau = 0.2e-9;
  return p;
}

runtime::SpectrumConverter converter(const DynamicParams& p,
                                     bool differential = false) {
  const auto spec = paper_spec();
  return runtime::spectrum_converter(spec, ideal_sources(spec), p,
                                     differential);
}

std::vector<double> wave(const runtime::SpectrumConverter& c,
                         std::vector<int> codes,
                         std::span<const double> jitter = {}) {
  const arch::CodeRecord record(c.sim.array(), std::move(codes));
  return c.sim.waveform(record, c.timing, jitter);
}

TEST(Dynamic, StaticLevelMatchesOhmsLaw) {
  const auto spec = paper_spec();
  const auto conv = converter(fast_params());
  // No droop configured: v = level * I_lsb * R_L.
  EXPECT_NEAR(conv.sim.v_of_level(4095.0),
              4095.0 * spec.i_lsb() * spec.r_load, 1e-9);
  EXPECT_NEAR(conv.sim.v_of_level(4095.0), spec.v_swing, 1e-6);
  EXPECT_DOUBLE_EQ(conv.sim.v_of_level(0.0), 0.0);
}

TEST(Dynamic, FiniteRoutCompressesTopOfRange) {
  DynamicParams p = fast_params();
  p.rout_unit = 1e8;
  const auto conv = converter(p);
  const double v_mid2 = conv.sim.v_of_level(2048.0) * 2.0;
  const double v_full = conv.sim.v_of_level(4096.0);
  EXPECT_LT(v_full, v_mid2);  // compressive (bow) nonlinearity
}

TEST(Dynamic, WaveformSettlesExponentially) {
  const auto spec = paper_spec();
  DynamicParams p = fast_params();
  const auto conv = converter(p);
  // Period 0 carries the wrap-around step down from 4095, so period 1 is
  // the settled one and the step up fires in period 2.
  const auto v = wave(conv, {0, 0, 4095, 4095});
  ASSERT_EQ(v.size(), 4u * 32u);
  EXPECT_NEAR(v[63], 0.0, 1e-9);
  // The step fires kNominalEdgeFrac * ts = 4 grid points into period 2;
  // sample 68+j sits at t = (j+1)*dt after it and must match the
  // single-pole response.
  const double dt = 1.0 / (p.fs * p.oversample);
  const int edge = static_cast<int>(arch::kNominalEdgeFrac * p.oversample);
  ASSERT_NEAR(edge * dt, arch::kNominalEdgeFrac / p.fs, 1e-18);
  for (int j = 0; j < 8; ++j) {
    const double t = (j + 1) * dt;
    EXPECT_NEAR(v[static_cast<std::size_t>(64 + edge + j)],
                spec.v_swing * (1.0 - std::exp(-t / p.tau)), 1e-6)
        << "j = " << j;
  }
  // End of record: fully settled.
  EXPECT_NEAR(v.back(), spec.v_swing, 1e-4);
}

TEST(Dynamic, BinarySkewCreatesGlitch) {
  DynamicParams clean = fast_params();
  DynamicParams skewed = fast_params();
  skewed.binary_skew = 100e-12;
  const auto s_clean = converter(clean);
  const auto s_skew = converter(skewed);
  // Major-carry transition: 2047 -> 2048 (binary 15->0, thermometer +1).
  const double e_clean = s_clean.sim.glitch_energy(s_clean.timing, 2047, 2048);
  const double e_skew = s_skew.sim.glitch_energy(s_skew.timing, 2047, 2048);
  EXPECT_NEAR(e_clean, 0.0, 1e-15);
  EXPECT_GT(e_skew, 1e-13);  // V*s
}

TEST(Dynamic, GlitchGrowsWithSwitchedWeight) {
  // Paper Section 1: glitch energy is determined by the binary bits; the
  // worst transition toggles the whole binary field against one unary.
  DynamicParams p = fast_params();
  p.binary_skew = 100e-12;
  const auto conv = converter(p);
  const double e_major = conv.sim.glitch_energy(conv.timing, 2047, 2048);
  const double e_minor = conv.sim.glitch_energy(conv.timing, 2048, 2049);
  EXPECT_GT(e_major, 5.0 * e_minor);
}

TEST(Dynamic, FeedthroughKickAppearsOnThermometerEdges) {
  DynamicParams p = fast_params();
  p.feedthrough_lsb = 0.5;
  const auto conv = converter(p);
  // Toggles 1 unary cell.
  const double e = conv.sim.glitch_energy(conv.timing, 2047, 2048 + 15);
  EXPECT_GT(e, 0.0);
}

TEST(Dynamic, NegativeFeedthroughKicksTheOtherWay) {
  // The wire accepts feedthrough_lsb in [-1e3, 1e3]: a negative value is
  // a kick of the opposite sign, not no kick.
  DynamicParams up = fast_params();
  up.feedthrough_lsb = 0.5;
  DynamicParams down = fast_params();
  down.feedthrough_lsb = -0.5;
  const std::vector<int> codes = {100, 2000, 3000, 500};
  const auto v0 = wave(converter(fast_params()), codes);
  const auto vu = wave(converter(up), codes);
  const auto vd = wave(converter(down), codes);
  double max_kick = 0.0;
  for (std::size_t i = 0; i < v0.size(); ++i) {
    EXPECT_NEAR(vd[i] - v0[i], -(vu[i] - v0[i]), 1e-12);
    max_kick = std::max(max_kick, std::abs(vd[i] - v0[i]));
  }
  EXPECT_GT(max_kick, 1e-4);

  runtime::SpectrumJob job;
  job.differential = false;
  job.dyn.feedthrough_lsb = -0.5;
  const auto kicked = std::get<runtime::SpectrumSummary>(
      runtime::execute_job(job, 1, nullptr));
  job.dyn.feedthrough_lsb = 0.0;
  const auto plain = std::get<runtime::SpectrumSummary>(
      runtime::execute_job(job, 1, nullptr));
  EXPECT_NE(kicked.sndr_db, plain.sndr_db);
}

TEST(Dynamic, JitterIsSymmetricAboutTheNominalEdge) {
  // A period's jitter shifts its edges both ways: an early edge fires
  // before the nominal instant instead of being held at the period start.
  const auto spec = paper_spec();
  const DynamicParams p = fast_params();
  const auto conv = converter(p);
  const double dt = 1.0 / (p.fs * p.oversample);
  const double t_nominal = arch::kNominalEdgeFrac / p.fs;
  for (const double shift : {-2.0 * dt, 0.0, 2.0 * dt}) {
    const std::vector<double> jitter = {0.0, 0.0, shift, 0.0};
    const auto v = wave(conv, {0, 0, 4095, 4095}, jitter);
    for (int j = 0; j < p.oversample; ++j) {
      const double t = (j + 1) * dt - (t_nominal + shift);
      const double want =
          t > 0.0 ? spec.v_swing * (1.0 - std::exp(-t / p.tau)) : 0.0;
      EXPECT_NEAR(v[static_cast<std::size_t>(64 + j)], want, 1e-6)
          << "shift " << shift << " j " << j;
    }
  }
}

TEST(Dynamic, TwentyBitThermometerSpectrumRuns) {
  // The spec allows 20 bits. The walk switches a thermometer range as one
  // edge, so 2^20 - 1 cells under a near-Nyquist sine stay cheap.
  runtime::SpectrumJob job;
  job.spec.nbits = 20;
  job.spec.binary_bits = 0;
  job.n_samples = 256;
  job.cycles = 127;
  job.dyn.oversample = 4;
  const auto r = std::get<runtime::SpectrumSummary>(
      runtime::execute_job(job, 1, nullptr));
  EXPECT_GT(r.enob, 16.0);
}

TEST(Dynamic, SineCodesCoherentAndBounded) {
  const auto spec = paper_spec();
  const auto codes = sine_codes(spec, 1024, 53);
  EXPECT_EQ(codes.size(), 1024u);
  int cmin = 1 << 20, cmax = -1;
  for (int c : codes) {
    cmin = std::min(cmin, c);
    cmax = std::max(cmax, c);
  }
  EXPECT_GE(cmin, 0);
  EXPECT_LE(cmax, 4095);
  EXPECT_GT(cmax, 4000);  // near full scale
  EXPECT_LT(cmin, 100);
  // Coherence: first and last samples wrap smoothly (same phase).
  EXPECT_NEAR(codes.front(), 2047, 2.0);
}

TEST(Dynamic, ParameterValidation) {
  DynamicParams p = fast_params();
  p.oversample = 1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = fast_params();
  p.binary_skew = 1.0;  // longer than the period
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = fast_params();
  p.tau = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  EXPECT_THROW(sine_codes(core::DacSpec{}, 10, 20), std::invalid_argument);
}

TEST(Dynamic, BinarySkewPastTheLatestEdgeIsRejected) {
  // The binary edges fire kNominalEdgeFrac * ts + binary_skew into the
  // period and the walk clamps edges at kLatestEdgeFrac * ts, so a skew
  // past 0.325 * ts would be silently cut short.
  DynamicParams p = fast_params();
  const double window = (arch::kLatestEdgeFrac - arch::kNominalEdgeFrac);
  p.binary_skew = 0.99 * window / p.fs;
  EXPECT_NO_THROW(p.validate());
  p.binary_skew = 1.01 * window / p.fs;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Differential, MidScaleIsNearZero) {
  const auto conv = converter(fast_params(), /*differential=*/true);
  // level ~ total/2: both rails carry the same current.
  const auto v = wave(conv, std::vector<int>(4, 2048));  // 2048 of 4095
  EXPECT_NEAR(v.back(),
              conv.sim.v_of_level(2048) - conv.sim.v_of_level(2047), 1e-9);
}

TEST(Differential, FullScaleSwingIsTwice) {
  const auto spec = paper_spec();
  const auto conv = converter(fast_params(), /*differential=*/true);
  const auto lo = wave(conv, std::vector<int>(4, 0));
  const auto hi = wave(conv, std::vector<int>(4, 4095));
  EXPECT_NEAR(hi.back() - lo.back(), 2.0 * spec.v_swing, 1e-3);
  EXPECT_NEAR(lo.back(), -spec.v_swing, 1e-3);
}

TEST(Differential, CommonModeFeedthroughCancels) {
  // The feedthrough kick is common-mode by construction: the differential
  // waveform must be identical with and without it.
  DynamicParams with_ft = fast_params();
  with_ft.feedthrough_lsb = 1.0;
  const DynamicParams without_ft = fast_params();
  const std::vector<int> codes = {100, 2000, 3000, 500};
  const auto va = wave(converter(with_ft, true), codes);
  const auto vb = wave(converter(without_ft, true), codes);
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_NEAR(va[i], vb[i], 1e-12);
  }
  // ... while the single-ended waveform clearly differs.
  const auto sa = wave(converter(with_ft), codes);
  const auto sb = wave(converter(without_ft), codes);
  double max_diff = 0.0;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(sa[i] - sb[i]));
  }
  EXPECT_GT(max_diff, 1e-4);
}

TEST(Differential, SharedJitterIsDeterministicPerRng) {
  DynamicParams p = fast_params();
  p.jitter_sigma = 3e-12;
  const auto conv = converter(p, /*differential=*/true);
  const std::vector<int> codes = {0, 1000, 2000, 3000};
  mathx::Xoshiro256 r1(5), r2(5);
  const auto j1 = arch::draw_period_jitter(codes.size(), p.jitter_sigma, r1);
  const auto j2 = arch::draw_period_jitter(codes.size(), p.jitter_sigma, r2);
  const auto a = wave(conv, codes, j1);
  const auto b = wave(conv, codes, j2);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace csdac::dac
