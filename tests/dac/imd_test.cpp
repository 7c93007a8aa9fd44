// Two-tone intermodulation measurement tests: the analyzer must recover the
// textbook IMD3 of a known cubic nonlinearity, and the behavioral DAC's
// finite output impedance must produce measurable odd-order IMD.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "arch/dyn_sim.hpp"
#include "dac/spectrum.hpp"
#include "runtime/job.hpp"

namespace csdac::dac {
namespace {

TEST(TwoTone, CodesStayInRangeAndCoherent) {
  core::DacSpec spec;
  const auto codes = two_tone_codes(spec, 2048, 201, 223);
  EXPECT_EQ(codes.size(), 2048u);
  int cmin = 1 << 20, cmax = -1;
  for (int c : codes) {
    cmin = std::min(cmin, c);
    cmax = std::max(cmax, c);
  }
  EXPECT_GE(cmin, 0);
  EXPECT_LE(cmax, 4095);
  EXPECT_GT(cmax, 3600);  // the two half-scale tones do add up
  EXPECT_THROW(two_tone_codes(spec, 100, 5, 5), std::invalid_argument);
  EXPECT_THROW(two_tone_codes(spec, 100, 0, 5), std::invalid_argument);
}

TEST(Imd, CubicNonlinearityMatchesTextbookImd3) {
  // y = x + a3*x^3 on two equal tones of amplitude A produces IMD3
  // products of amplitude (3/4)*a3*A^3, i.e. IMD3 = 20*log10((3/4)*a3*A^2).
  const std::size_t n = 4096;
  const std::size_t b1 = 401, b2 = 439;
  const double a = 0.5;
  const double a3 = 0.02;
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x =
        a * std::sin(2.0 * std::numbers::pi * b1 * i / n) +
        a * std::sin(2.0 * std::numbers::pi * b2 * i / n);
    v[i] = x + a3 * x * x * x;
  }
  const auto r = analyze_imd(v, 300e6, b1, b2);
  const double expected = 20.0 * std::log10(0.75 * a3 * a * a);
  EXPECT_NEAR(r.imd3_db, expected, 1.0);
  EXPECT_EQ(r.imd3_lo_bin, 2 * b1 - b2);
  EXPECT_EQ(r.imd3_hi_bin, 2 * b2 - b1);
  // Tones are equal power.
  EXPECT_NEAR(10.0 * std::log10(r.tone2_power / r.tone1_power), 0.0, 0.2);
}

TEST(Imd, QuadraticNonlinearityMatchesTextbookImd2) {
  // y = x + a2*x^2: the f2-f1 / f1+f2 products have amplitude a2*A^2, i.e.
  // IMD2 = 20*log10(a2*A) relative to the tones.
  const std::size_t n = 4096;
  const std::size_t b1 = 401, b2 = 439;
  const double a = 0.4, a2 = 0.01;
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x =
        a * std::sin(2.0 * std::numbers::pi * b1 * i / n) +
        a * std::sin(2.0 * std::numbers::pi * b2 * i / n);
    v[i] = x + a2 * x * x;
  }
  const auto r = analyze_imd(v, 300e6, b1, b2);
  EXPECT_NEAR(r.imd2_db, 20.0 * std::log10(a2 * a), 1.0);
  // A pure even-order error leaves IMD3 at the floor.
  EXPECT_LT(r.imd3_db, r.imd2_db - 40.0);
}

TEST(Imd, CleanTwoToneHasDeepImdFloor) {
  const std::size_t n = 2048;
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 0.4 * std::sin(2.0 * std::numbers::pi * 201.0 * i / n) +
           0.4 * std::sin(2.0 * std::numbers::pi * 223.0 * i / n);
  }
  const auto r = analyze_imd(v, 300e6, 201, 223);
  EXPECT_LT(r.imd3_db, -150.0);
}

TEST(Imd, DacDroopCreatesOddOrderProducts) {
  // Finite output impedance: the compressive droop 1/(1 + a*L) contains a
  // cubic term, so the two-tone record shows IMD3 above the clean floor.
  // Crucially, IMD3 is ODD order: unlike HD2/IMD2, the differential output
  // does NOT cancel it — both measurements must agree.
  core::DacSpec spec;
  DynamicParams p;
  p.oversample = 2;
  p.tau = 1e-12;
  p.rout_unit = 5e6;  // strong droop so the cubic residue is visible
  auto measure = [&](bool differential) {
    const auto conv = runtime::spectrum_converter(spec, ideal_sources(spec),
                                                  p, differential);
    const arch::CodeRecord record(conv.sim.array(),
                                  two_tone_codes(spec, 2048, 201, 223));
    return analyze_imd(conv.sim.period_end_samples(record, conv.timing),
                       300e6, 201, 223);
  };
  const auto se = measure(false);
  const auto diff = measure(true);
  EXPECT_GT(se.imd3_db, -95.0);                  // above the clean floor
  EXPECT_NEAR(diff.imd3_db, se.imd3_db, 3.0);    // odd order survives diff
  // ... while the even-order IMD2 collapses differentially.
  EXPECT_GT(se.imd2_db, -60.0);
  EXPECT_LT(diff.imd2_db, se.imd2_db - 30.0);
}

TEST(Imd, InputValidation) {
  std::vector<double> v(64, 0.0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = std::sin(2.0 * std::numbers::pi * 5.0 * i / 64.0);
  }
  EXPECT_THROW(analyze_imd(v, 1e6, 5, 5), std::invalid_argument);
  EXPECT_THROW(analyze_imd(v, 1e6, 0, 5), std::invalid_argument);
  EXPECT_THROW(analyze_imd(v, 1e6, 5, 200), std::invalid_argument);
}

}  // namespace
}  // namespace csdac::dac
