#include "dac/spectrum.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "mathx/transcendental.hpp"

namespace csdac::dac {
namespace {

constexpr double kFloor = 1e-30;

}  // namespace

void SpectrumOptions::validate() const {
  if (guard_bins < 0 || guard_bins > (1 << 20)) {
    throw std::invalid_argument("SpectrumOptions: bad guard_bins");
  }
  if (dc_bins < 0 || dc_bins > (1 << 20)) {
    throw std::invalid_argument("SpectrumOptions: bad dc_bins");
  }
  if (harmonics < 1 || harmonics > 1000) {
    throw std::invalid_argument("SpectrumOptions: harmonics must be in [1, 1000]");
  }
  if (!std::isfinite(max_freq) || max_freq < 0.0) {
    throw std::invalid_argument(
        "SpectrumOptions: max_freq must be finite and >= 0");
  }
}

SpectrumMetrics spectrum_metrics(const std::vector<double>& samples,
                                 double fs, const SpectrumOptions& opts,
                                 std::size_t fund_bin_hint,
                                 std::vector<double>& bin_power) {
  opts.validate();
  if (samples.size() < 16) {
    throw std::invalid_argument("analyze_spectrum: record too short");
  }
  if (!std::isfinite(fs) || !(fs > 0.0)) {
    throw std::invalid_argument("analyze_spectrum: fs <= 0");
  }

  const std::size_t n = samples.size();
  // Remove the WINDOW-WEIGHTED mean (zeroes bin 0 exactly; the plain mean
  // leaves a large DC residual under non-rectangular windows) and window.
  const auto win = mathx::make_window(opts.window, n);
  double wsum = 0.0, vwsum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    wsum += win[i];
    vwsum += samples[i] * win[i];
  }
  const double mean = wsum > 0.0 ? vwsum / wsum : 0.0;
  std::vector<mathx::Cplx> x;
  if (mathx::is_pow2(n)) {
    std::vector<double> xr(n);
    for (std::size_t i = 0; i < n; ++i) xr[i] = (samples[i] - mean) * win[i];
    mathx::fft_real_pow2(xr, x);
  } else {
    x.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = mathx::Cplx((samples[i] - mean) * win[i], 0.0);
    }
    x = mathx::dft(x);
  }

  const std::size_t half = n / 2 + 1;
  std::vector<double>& power = bin_power;
  power.resize(half);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t k = 0; k < half; ++k) {
    const double scale = (k == 0 || 2 * k == n) ? 1.0 : 2.0;
    const double re = x[k].real() * inv_n, im = x[k].imag() * inv_n;
    power[k] = scale * (re * re + im * im);
  }

  // Locate the fundamental.
  std::size_t fund = fund_bin_hint;
  if (fund == 0) {
    double best = -1.0;
    for (std::size_t k = static_cast<std::size_t>(opts.dc_bins) + 1;
         k < half; ++k) {
      if (power[k] > best) {
        best = power[k];
        fund = k;
      }
    }
  }
  if (fund == 0 || fund >= half) {
    throw std::invalid_argument("analyze_spectrum: no fundamental found");
  }
  if (fund <= static_cast<std::size_t>(opts.dc_bins)) {
    throw std::invalid_argument(
        "analyze_spectrum: fundamental inside the DC exclusion");
  }
  std::size_t search_limit = half;
  if (opts.max_freq > 0.0) {
    search_limit = std::min(
        half, static_cast<std::size_t>(opts.max_freq / fs *
                                       static_cast<double>(n)) + 1);
  }
  if (fund >= search_limit) {
    throw std::invalid_argument(
        "analyze_spectrum: max_freq excludes the fundamental");
  }

  // Tone power including guard bins.  The guard band must not reach into
  // the DC exclusion: a wide guard around a near-DC fundamental would
  // otherwise count DC leakage as signal power.
  const std::size_t dc_lo = static_cast<std::size_t>(opts.dc_bins) + 1;
  auto tone_power = [&](std::size_t center) {
    double p = 0.0;
    std::size_t lo =
        center > static_cast<std::size_t>(opts.guard_bins)
            ? center - static_cast<std::size_t>(opts.guard_bins)
            : 0;
    lo = std::max(lo, dc_lo);
    const std::size_t hi = std::min(
        half - 1, center + static_cast<std::size_t>(opts.guard_bins));
    for (std::size_t k = lo; k <= hi; ++k) p += power[k];
    return p;
  };
  const double p_fund = tone_power(fund);
  if (p_fund <= 0.0) {
    throw std::invalid_argument("analyze_spectrum: zero fundamental power");
  }

  SpectrumMetrics r;
  r.fund_bin = fund;
  r.fund_power = p_fund;

  // Spur search and total noise+distortion, excluding DC and the
  // fundamental's guard band, up to the in-band limit.
  auto in_fund = [&](std::size_t k) {
    return k + static_cast<std::size_t>(opts.guard_bins) >= fund &&
           k <= fund + static_cast<std::size_t>(opts.guard_bins);
  };
  // Spur integration must not swallow the fundamental's own skirt: bins
  // inside the fundamental guard band are excluded from candidate windows,
  // and the window is clamped away from the DC exclusion like tone_power.
  auto spur_power = [&](std::size_t center) {
    double p = 0.0;
    std::size_t lo =
        center > static_cast<std::size_t>(opts.guard_bins)
            ? center - static_cast<std::size_t>(opts.guard_bins)
            : 0;
    lo = std::max(lo, dc_lo);
    const std::size_t hi = std::min(
        half - 1, center + static_cast<std::size_t>(opts.guard_bins));
    for (std::size_t k = lo; k <= hi; ++k) {
      if (!in_fund(k)) p += power[k];
    }
    return p;
  };
  double worst_spur = 0.0;
  double p_nd = 0.0;
  for (std::size_t k = static_cast<std::size_t>(opts.dc_bins) + 1;
       k < search_limit; ++k) {
    if (in_fund(k)) continue;
    p_nd += power[k];
    worst_spur = std::max(worst_spur, spur_power(k));
  }
  r.sfdr_db = 10.0 * std::log10(p_fund / std::max(worst_spur, kFloor));
  r.sndr_db = 10.0 * std::log10(p_fund / std::max(p_nd, kFloor));
  r.enob = (r.sndr_db - 1.76) / 6.02;

  // THD over the first `harmonics` harmonics, folded back into [0, fs/2].
  double p_harm = 0.0;
  for (int h = 2; h <= opts.harmonics + 1; ++h) {
    std::size_t bin = (fund * static_cast<std::size_t>(h)) % n;
    if (bin >= half) bin = n - bin;  // alias
    if (bin == 0 || in_fund(bin)) continue;
    p_harm += tone_power(bin);
  }
  r.thd_db = 10.0 * std::log10(std::max(p_harm, kFloor) / p_fund);

  // Fundamental relative to the record's peak-to-peak half (rough dBFS).
  double vmax = samples[0], vmin = samples[0];
  for (double v : samples) {
    vmax = std::max(vmax, v);
    vmin = std::min(vmin, v);
  }
  const double full_amp = 0.5 * (vmax - vmin);
  // Coherent gain of the window: the mean of its coefficients.
  const double fund_amp =
      std::sqrt(2.0 * p_fund) / (wsum / static_cast<double>(n));
  r.fund_db_fs =
      20.0 * std::log10(std::max(fund_amp, kFloor) /
                        std::max(full_amp, kFloor));
  return r;
}

SpectrumResult analyze_spectrum(const std::vector<double>& samples, double fs,
                                const SpectrumOptions& opts,
                                std::size_t fund_bin_hint) {
  std::vector<double> power;
  SpectrumResult r;
  static_cast<SpectrumMetrics&>(r) =
      spectrum_metrics(samples, fs, opts, fund_bin_hint, power);
  const std::size_t n = samples.size();
  r.freq_hz.resize(power.size());
  r.mag_db.resize(power.size());
  for (std::size_t k = 0; k < power.size(); ++k) {
    r.freq_hz[k] = fs * static_cast<double>(k) / static_cast<double>(n);
    r.mag_db[k] =
        10.0 * std::log10(std::max(power[k] / r.fund_power, kFloor));
  }
  return r;
}

ImdResult analyze_imd(const std::vector<double>& samples, double fs,
                      std::size_t bin1, std::size_t bin2,
                      const SpectrumOptions& opts) {
  if (bin1 == bin2 || bin1 == 0 || bin2 == 0) {
    throw std::invalid_argument("analyze_imd: need two distinct tones");
  }
  const std::size_t n = samples.size();
  const std::size_t half = n / 2 + 1;
  if (bin1 >= half || bin2 >= half) {
    throw std::invalid_argument("analyze_imd: tone bin out of band");
  }
  // Reuse the windowed spectrum machinery via analyze_spectrum on the
  // first tone (magnitudes are relative; we need absolute powers, so the
  // per-bin power is recomputed from mag_db and the tone power).
  const SpectrumResult base = analyze_spectrum(samples, fs, opts, bin1);
  // base.mag_db is relative to tone-1 power including guard bins.
  auto power_db = [&](std::size_t k) {
    double p = -1e9;
    const std::size_t g = static_cast<std::size_t>(opts.guard_bins);
    const std::size_t lo = k > g ? k - g : 0;
    const std::size_t hi = std::min(half - 1, k + g);
    for (std::size_t i = lo; i <= hi; ++i) {
      p = std::max(p, base.mag_db[i]);
    }
    return p;
  };
  // Third-order products, folded back into the first Nyquist zone.
  auto folded = [&](long long b) {
    long long m = b % static_cast<long long>(n);
    if (m < 0) m += static_cast<long long>(n);
    if (static_cast<std::size_t>(m) >= half) m = static_cast<long long>(n) - m;
    return static_cast<std::size_t>(m);
  };
  ImdResult r;
  r.imd3_lo_bin = folded(2 * static_cast<long long>(bin1) -
                         static_cast<long long>(bin2));
  r.imd3_hi_bin = folded(2 * static_cast<long long>(bin2) -
                         static_cast<long long>(bin1));
  const double t1_db = power_db(bin1);  // ~0 dB by construction
  const double t2_db = power_db(bin2);
  r.tone1_power = std::pow(10.0, t1_db / 10.0);
  r.tone2_power = std::pow(10.0, t2_db / 10.0);
  const double ref_db = 0.5 * (t1_db + t2_db);
  r.imd3_db = std::max(power_db(r.imd3_lo_bin), power_db(r.imd3_hi_bin)) -
              ref_db;
  const std::size_t imd2_lo = folded(static_cast<long long>(bin2) -
                                     static_cast<long long>(bin1));
  const std::size_t imd2_hi = folded(static_cast<long long>(bin1) +
                                     static_cast<long long>(bin2));
  r.imd2_db = std::max(power_db(imd2_lo), power_db(imd2_hi)) - ref_db;
  return r;
}

std::vector<int> sine_codes(const core::DacSpec& spec, int n_samples,
                            int cycles, int margin) {
  if (n_samples < 2 || cycles < 1 || cycles >= n_samples || margin < 0) {
    throw std::invalid_argument("sine_codes: bad arguments");
  }
  const int full = (1 << spec.nbits) - 1;
  const double mid = 0.5 * full;
  const double amp = mid - margin;
  std::vector<int> codes(static_cast<std::size_t>(n_samples));
  for (int i = 0; i < n_samples; ++i) {
    const double ph = 2.0 * std::numbers::pi * cycles * i /
                      static_cast<double>(n_samples);
    const double v = mid + amp * mathx::sin(ph);
    codes[static_cast<std::size_t>(i)] =
        std::clamp(static_cast<int>(std::lround(v)), 0, full);
  }
  return codes;
}

std::vector<int> two_tone_codes(const core::DacSpec& spec, int n_samples,
                                int cycles1, int cycles2, int margin) {
  if (n_samples < 2 || cycles1 < 1 || cycles2 < 1 || cycles1 == cycles2 ||
      cycles1 >= n_samples || cycles2 >= n_samples || margin < 0) {
    throw std::invalid_argument("two_tone_codes: bad arguments");
  }
  const int full = (1 << spec.nbits) - 1;
  const double mid = 0.5 * full;
  const double amp = 0.5 * (mid - margin);  // each tone just under half scale
  std::vector<int> codes(static_cast<std::size_t>(n_samples));
  for (int i = 0; i < n_samples; ++i) {
    const double ph1 = 2.0 * std::numbers::pi * cycles1 * i /
                       static_cast<double>(n_samples);
    const double ph2 = 2.0 * std::numbers::pi * cycles2 * i /
                       static_cast<double>(n_samples);
    const double v = mid + amp * (mathx::sin(ph1) + mathx::sin(ph2));
    codes[static_cast<std::size_t>(i)] =
        std::clamp(static_cast<int>(std::lround(v)), 0, full);
  }
  return codes;
}

}  // namespace csdac::dac
