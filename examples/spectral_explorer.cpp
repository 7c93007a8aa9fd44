// Dynamic characterization sweep: SFDR / SNDR / ENOB of the behavioral
// 12-bit converter versus signal frequency, showing the individual
// contribution of each non-ideality the library models (mismatch, finite
// output impedance, binary-path timing skew, clock jitter).
#include <cstdio>

#include "core/accuracy.hpp"
#include "dac/spectrum.hpp"
#include "runtime/job.hpp"

using namespace csdac;

namespace {

struct Scenario {
  const char* name;
  double sigma;        // unit mismatch
  double rout;         // unit output impedance [Ohm]
  double skew;         // binary latch skew [s]
  double jitter;       // clock jitter sigma [s]
};

double run_sfdr(const core::DacSpec& spec, const Scenario& sc, int cycles) {
  mathx::Xoshiro256 rng(42);
  const auto errors =
      sc.sigma > 0 ? dac::draw_source_errors(spec, sc.sigma, rng)
                   : dac::ideal_sources(spec);
  dac::DynamicParams p;
  p.fs = 300e6;
  p.oversample = 4;
  p.tau = 0.3e-9;
  p.rout_unit = sc.rout;
  p.binary_skew = sc.skew;
  p.jitter_sigma = sc.jitter;
  const runtime::SpectrumConverter conv =
      runtime::spectrum_converter(spec, errors, p, false);
  const arch::CodeRecord record(conv.sim.array(),
                                dac::sine_codes(spec, 1024, cycles));
  const std::vector<double> jitter =
      sc.jitter > 0 ? arch::draw_period_jitter(record.size(), sc.jitter, rng)
                    : std::vector<double>();
  const auto wave = conv.sim.waveform(record, conv.timing, jitter);
  // Analyze the full oversampled waveform (glitches and jitter live
  // BETWEEN the sampling instants), restricting the spur search to the
  // converter's own Nyquist band.
  dac::SpectrumOptions opts;
  opts.max_freq = p.fs / 2.0;
  return dac::analyze_spectrum(wave, p.fs * p.oversample, opts).sfdr_db;
}

}  // namespace

int main() {
  core::DacSpec spec;
  const double sigma = core::unit_sigma_spec(spec.nbits, spec.inl_yield);

  // Each scenario isolates ONE non-ideality on top of the ideal quantized
  // converter, so the rows are directly comparable.
  const Scenario scenarios[] = {
      {"ideal (quantization only)", 0.0, 1e15, 0.0, 0.0},
      {"mismatch @ eq.(1) spec", sigma, 1e15, 0.0, 0.0},
      {"mismatch @ 4x spec", 4.0 * sigma, 1e15, 0.0, 0.0},
      {"finite Rout (20 MOhm/unit)", 0.0, 20e6, 0.0, 0.0},
      {"150 ps binary skew", 0.0, 1e15, 150e-12, 0.0},
      {"8 ps rms clock jitter", 0.0, 1e15, 0.0, 8e-12},
  };

  std::printf("SFDR [dB] vs signal frequency, 300 MS/s, 1024-sample "
              "coherent records\n\n");
  std::printf("%-30s", "scenario \\ fin");
  const int cycle_list[] = {7, 31, 181, 379};  // 2.1, 9.1, 53, 111 MHz
  for (int c : cycle_list) {
    std::printf("%10.1fM", c / 1024.0 * 300.0);
  }
  std::printf("\n");
  for (const auto& sc : scenarios) {
    std::printf("%-30s", sc.name);
    for (int c : cycle_list) {
      std::printf("%11.1f", run_sfdr(spec, sc, c));
    }
    std::printf("\n");
  }
  std::printf("\nRead the columns for the frequency dependence: jitter "
              "bites harder at high fin while mismatch and Rout droop are "
              "flat. Note the 150 ps skew glitch stays within a few dB of "
              "the 12-bit quantization floor -- consistent with the paper "
              "deferring glitch minimization to circuit-level design.\n");
  return 0;
}
