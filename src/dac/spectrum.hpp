// Spectral metrics of a DAC output record: single-sided spectrum, SFDR,
// SNDR, THD and ENOB, computed with the library's own DFT (Fig. 8's
// "spectrum obtained by applying the DFT to 50 periods of the output"),
// and the coherent sine and two-tone code records that drive it.
#pragma once

#include <cstddef>
#include <vector>

#include "core/spec.hpp"
#include "mathx/fft.hpp"

namespace csdac::dac {

/// Generates a coherently-sampled sine code sequence: `cycles` full periods
/// in `n_samples` samples (choose them coprime for coherent capture).
/// Amplitude spans [margin, 2^n - 1 - margin].
std::vector<int> sine_codes(const core::DacSpec& spec, int n_samples,
                            int cycles, int margin = 1);

/// Two-tone test signal (for intermodulation measurements): equal-amplitude
/// tones of `cycles1` and `cycles2` periods per record, each at just under
/// half scale so the sum stays in range.
std::vector<int> two_tone_codes(const core::DacSpec& spec, int n_samples,
                                int cycles1, int cycles2, int margin = 1);

/// The scalar metrics of a spectrum.
struct SpectrumMetrics {
  std::size_t fund_bin = 0;
  double fund_power = 0.0;       ///< fundamental power incl. guard bins
  double fund_db_fs = 0.0;       ///< fundamental relative to record max [dB]
  double sfdr_db = 0.0;          ///< fundamental to worst spur [dBc]
  double sndr_db = 0.0;          ///< signal to total noise+distortion
  double thd_db = 0.0;           ///< total harmonic distortion (first 10)
  double enob = 0.0;             ///< (SNDR - 1.76) / 6.02
};

/// The metrics plus the per-bin spectrum.
struct SpectrumResult : SpectrumMetrics {
  std::vector<double> freq_hz;   ///< bin center frequencies (single-sided)
  std::vector<double> mag_db;    ///< dB relative to the fundamental (dBc)
};

struct SpectrumOptions {
  mathx::Window window = mathx::Window::kRect;
  /// Bins on each side of the fundamental (and harmonics) treated as part
  /// of that tone (leakage guard). 0 is right for coherent rect capture.
  int guard_bins = 0;
  /// Number of DC bins excluded from the spur/noise search.
  int dc_bins = 1;
  /// Harmonic count for THD.
  int harmonics = 10;
  /// Upper frequency limit [Hz] for the spur/noise search; 0 = Nyquist.
  /// Useful on oversampled DAC waveforms, where the zero-order-hold images
  /// above the converter's own Nyquist are not in-band spurs.
  double max_freq = 0.0;

  /// Throws std::invalid_argument on out-of-range fields (negative guard
  /// or DC bins, harmonics < 1, non-finite or negative max_freq).
  void validate() const;
};

/// Analyzes a real record sampled at `fs`. The fundamental is located
/// automatically (largest non-DC bin) unless `fund_bin_hint` is nonzero.
/// `bin_power` receives the single-sided bin powers (n/2 + 1 entries);
/// callers that want only the metrics pass a scratch vector; each is
/// scale * (re^2 + im^2) of the bin over n. Power-of-two records go
/// through mathx::fft_real_pow2, other lengths through mathx::dft. This is
/// the one implementation; analyze_spectrum adds the per-bin arrays to it.
SpectrumMetrics spectrum_metrics(const std::vector<double>& samples,
                                 double fs, const SpectrumOptions& opts,
                                 std::size_t fund_bin_hint,
                                 std::vector<double>& bin_power);

/// spectrum_metrics plus freq_hz and mag_db for every bin.
SpectrumResult analyze_spectrum(const std::vector<double>& samples, double fs,
                                const SpectrumOptions& opts = {},
                                std::size_t fund_bin_hint = 0);

/// Two-tone intermodulation measurement on a coherent record whose tones
/// sit exactly at `bin1` and `bin2`. IMD3 is the worse of the third-order
/// products at 2*f1 - f2 and 2*f2 - f1, in dB relative to the (average)
/// per-tone power; negative numbers are better.
struct ImdResult {
  double tone1_power = 0.0;
  double tone2_power = 0.0;
  double imd3_db = 0.0;
  double imd2_db = 0.0;         ///< worse of f2-f1 and f1+f2 (even order)
  std::size_t imd3_lo_bin = 0;  ///< 2*bin1 - bin2 (folded)
  std::size_t imd3_hi_bin = 0;  ///< 2*bin2 - bin1 (folded)
};
ImdResult analyze_imd(const std::vector<double>& samples, double fs,
                      std::size_t bin1, std::size_t bin2,
                      const SpectrumOptions& opts = {});

}  // namespace csdac::dac
