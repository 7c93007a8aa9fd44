#include "mathx/fft.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>
#include <numbers>
#include <stdexcept>

#include "mathx/transcendental.hpp"

namespace csdac::mathx {
namespace {

constexpr double kPi = std::numbers::pi;

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// exp(-2 pi i k / n) for k in [0, n/2), n a power of two >= 2: built once
/// per size from mathx::cos/sin (so every host holds the same bits) and
/// kept for the life of the process.
const Cplx* twiddles(std::size_t n) {
  static std::atomic<const Cplx*> ready[64];
  static std::mutex mu;
  static std::unique_ptr<Cplx[]> owned[64];  // guarded by mu
  const int lg = std::countr_zero(n);
  if (const Cplx* w = ready[lg].load(std::memory_order_acquire)) return w;
  const std::lock_guard<std::mutex> lock(mu);
  if (!owned[lg]) {
    owned[lg] = std::make_unique<Cplx[]>(n / 2);
    for (std::size_t k = 0; k < n / 2; ++k) {
      const double ang =
          -2.0 * kPi * static_cast<double>(k) / static_cast<double>(n);
      owned[lg][k] = Cplx(mathx::cos(ang), mathx::sin(ang));
    }
    ready[lg].store(owned[lg].get(), std::memory_order_release);
  }
  return owned[lg].get();
}

/// In-place radix-2 transform of x[0, n): bit reversal, then butterflies
/// whose stage-len twiddle k is w[k * (table_n / len)], w the
/// twiddles(table_n) table (table_n a power-of-two multiple of n). `sign`
/// -1 conjugates the twiddles (the inverse transform, unscaled).
void fft_core(Cplx* x, std::size_t n, const Cplx* w, std::size_t table_n,
              double sign) {
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t step = table_n / len;
    for (std::size_t i = 0; i < n; i += len) {
      Cplx* a = x + i;
      Cplx* b = x + i + half;
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = w[k * step].real();
        const double wi = sign * w[k * step].imag();
        const double br = b[k].real() * wr - b[k].imag() * wi;
        const double bi = b[k].real() * wi + b[k].imag() * wr;
        const double ar = a[k].real(), ai = a[k].imag();
        a[k] = Cplx(ar + br, ai + bi);
        b[k] = Cplx(ar - br, ai - bi);
      }
    }
  }
}

}  // namespace

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

void fft_pow2(std::vector<Cplx>& x, bool inverse) {
  const std::size_t n = x.size();
  if (!is_pow2(n)) throw std::invalid_argument("fft_pow2: n not a power of 2");
  if (n == 1) return;
  fft_core(x.data(), n, twiddles(n), n, inverse ? -1.0 : 1.0);
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& v : x) v *= inv_n;
  }
}

void fft_real_pow2(const std::vector<double>& x, std::vector<Cplx>& out) {
  const std::size_t n = x.size();
  if (n < 2 || !is_pow2(n)) {
    throw std::invalid_argument("fft_real_pow2: n not a power of 2 >= 2");
  }
  // Even samples as the real parts, odd ones as the imaginary parts: one
  // n/2-point FFT Z, then X[k] = E[k] + W^k O[k] with E = (Z[k] +
  // conj Z[m-k]) / 2, O = (Z[k] - conj Z[m-k]) / 2i and W = e^(-2 pi i/n).
  const std::size_t m = n / 2;
  out.resize(m + 1);
  for (std::size_t j = 0; j < m; ++j) out[j] = Cplx(x[2 * j], x[2 * j + 1]);
  const Cplx* w = twiddles(n);
  fft_core(out.data(), m, w, n, 1.0);
  const Cplx z0 = out[0];
  out[0] = Cplx(z0.real() + z0.imag(), 0.0);
  out[m] = Cplx(z0.real() - z0.imag(), 0.0);
  // Bins k and m - k come from the same pair; W^(m-k) = -conj(W^k).
  for (std::size_t k = 1; 2 * k <= m; ++k) {
    const double ar = out[k].real(), ai = out[k].imag();
    const double br = out[m - k].real(), bi = out[m - k].imag();
    const double er = 0.5 * (ar + br), ei = 0.5 * (ai - bi);
    const double orr = 0.5 * (ai + bi), oi = 0.5 * (br - ar);
    const double wr = w[k].real(), wi = w[k].imag();
    out[m - k] = Cplx(er - wr * orr + wi * oi, wi * orr + wr * oi - ei);
    out[k] = Cplx(er + wr * orr - wi * oi, ei + wr * oi + wi * orr);
  }
}

std::vector<Cplx> dft(const std::vector<Cplx>& x, bool inverse) {
  const std::size_t n = x.size();
  if (n == 0) return {};
  if (is_pow2(n)) {
    std::vector<Cplx> y = x;
    fft_pow2(y, inverse);
    return y;
  }
  // Bluestein: X[k] = b*[k] sum_m (a[m] b[m]) conv, via pow2 FFTs.
  const double sign = inverse ? 1.0 : -1.0;
  const std::size_t m = next_pow2(2 * n - 1);
  std::vector<Cplx> a(m, Cplx{}), b(m, Cplx{});
  std::vector<Cplx> chirp(n);
  for (std::size_t i = 0; i < n; ++i) {
    // angle = pi * i^2 / n, computed mod 2n to keep the argument small.
    const unsigned long long i2 =
        (static_cast<unsigned long long>(i) * i) % (2ull * n);
    const double ang = sign * kPi * static_cast<double>(i2) /
                       static_cast<double>(n);
    chirp[i] = Cplx(mathx::cos(ang), mathx::sin(ang));
    a[i] = x[i] * chirp[i];
  }
  b[0] = Cplx(1.0, 0.0);
  for (std::size_t i = 1; i < n; ++i) {
    b[i] = std::conj(chirp[i]);
    b[m - i] = b[i];
  }
  fft_pow2(a);
  fft_pow2(b);
  for (std::size_t i = 0; i < m; ++i) a[i] *= b[i];
  fft_pow2(a, /*inverse=*/true);
  std::vector<Cplx> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * chirp[i];
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& v : out) v *= inv_n;
  }
  return out;
}

std::vector<Cplx> dft_real(const std::vector<double>& x) {
  std::vector<Cplx> c(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) c[i] = Cplx(x[i], 0.0);
  return dft(c);
}

std::vector<double> magnitude_db(const std::vector<Cplx>& spectrum,
                                 double fs_ref) {
  const std::size_t n = spectrum.size();
  const std::size_t half = n / 2 + 1;
  std::vector<double> out(half);
  constexpr double kFloor = 1e-30;
  for (std::size_t k = 0; k < half; ++k) {
    const double scale = (k == 0 || 2 * k == n) ? 1.0 : 2.0;
    const double mag =
        scale * std::abs(spectrum[k]) / (static_cast<double>(n) * fs_ref);
    out[k] = 20.0 * std::log10(std::max(mag, kFloor));
  }
  return out;
}

std::vector<double> make_window(Window w, std::size_t n) {
  std::vector<double> win(n, 1.0);
  if (n <= 1) return win;
  const double denom = static_cast<double>(n);  // periodic windows
  switch (w) {
    case Window::kRect:
      break;
    case Window::kHann:
      for (std::size_t i = 0; i < n; ++i) {
        win[i] = 0.5 - 0.5 * mathx::cos(2.0 * kPi * static_cast<double>(i) / denom);
      }
      break;
    case Window::kBlackmanHarris4: {
      constexpr double a0 = 0.35875, a1 = 0.48829, a2 = 0.14128, a3 = 0.01168;
      for (std::size_t i = 0; i < n; ++i) {
        const double t = 2.0 * kPi * static_cast<double>(i) / denom;
        win[i] = a0 - a1 * mathx::cos(t) + a2 * mathx::cos(2 * t) -
                 a3 * mathx::cos(3 * t);
      }
      break;
    }
  }
  return win;
}

double window_coherent_gain(Window w, std::size_t n) {
  const auto win = make_window(w, n);
  double sum = 0.0;
  for (double v : win) sum += v;
  return n ? sum / static_cast<double>(n) : 1.0;
}

}  // namespace csdac::mathx
