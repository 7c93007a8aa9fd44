// E9 — extension experiment: two-tone intermodulation of the behavioral
// converter vs unit output impedance, completing the [7,8] impedance-
// distortion picture. The compressive droop's even-order products cancel
// differentially; the odd-order IMD3 does not — it sets the multi-carrier
// (communications) linearity the paper's intro motivates.
#include <cstdio>

#include "bench_util.hpp"
#include "core/accuracy.hpp"
#include "dac/spectrum.hpp"
#include "runtime/job.hpp"

using namespace csdac;
using namespace csdac::bench;

namespace {

struct Point {
  double imd3_se = 0.0;
  double imd3_diff = 0.0;
  double imd2_se = 0.0;
  double imd2_diff = 0.0;
};

Point measure(const core::DacSpec& spec, double rout_unit) {
  dac::DynamicParams p;
  p.oversample = 2;
  p.tau = 1e-12;
  p.rout_unit = rout_unit;
  auto sampled = [&](bool diff) {
    const runtime::SpectrumConverter conv =
        runtime::spectrum_converter(spec, dac::ideal_sources(spec), p, diff);
    const arch::CodeRecord record(
        conv.sim.array(), dac::two_tone_codes(spec, 2048, 201, 223));
    return conv.sim.period_end_samples(record, conv.timing);
  };
  Point pt;
  const auto r_se = dac::analyze_imd(sampled(false), 300e6, 201, 223);
  const auto r_diff = dac::analyze_imd(sampled(true), 300e6, 201, 223);
  pt.imd3_se = r_se.imd3_db;
  pt.imd3_diff = r_diff.imd3_db;
  pt.imd2_se = r_se.imd2_db;
  pt.imd2_diff = r_diff.imd2_db;
  return pt;
}

}  // namespace

int main() {
  core::DacSpec spec;
  print_header("E9", "extension — two-tone IMD vs unit output impedance");
  std::printf("tones at 29.4 / 32.7 MHz (bins 201/223 of 2048), 300 MS/s, "
              "ideal sources (droop only)\n\n");
  print_row({"Rout/unit [MOhm]", "IMD2 SE [dBc]", "IMD2 diff [dBc]",
             "IMD3 SE [dBc]", "IMD3 diff [dBc]"},
            18);
  for (double rout : {2e6, 5e6, 20e6, 100e6, 1e9}) {
    const Point pt = measure(spec, rout);
    print_row({fmt(rout * 1e-6, "%.0f"), fmt(pt.imd2_se, "%.1f"),
               fmt(pt.imd2_diff, "%.1f"), fmt(pt.imd3_se, "%.1f"),
               fmt(pt.imd3_diff, "%.1f")},
              18);
  }
  std::printf("\nreading: the differential output crushes the even-order "
              "IMD2 but leaves IMD3 untouched; IMD3 improves with the "
              "third-order Rout scaling — multi-carrier linearity still "
              "demands the cascode's high output impedance.\n");
  return 0;
}
