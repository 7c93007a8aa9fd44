#include "mathx/fft.hpp"

#include <cmath>
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

}  // namespace

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

void fft_pow2(std::vector<Cplx>& x, bool inverse) {
  const std::size_t n = x.size();
  if (!is_pow2(n)) throw std::invalid_argument("fft_pow2: n not a power of 2");
  if (n == 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = 2.0 * kPi / static_cast<double>(len) *
                       (inverse ? 1.0 : -1.0);
    const Cplx wlen(mathx::cos(ang), mathx::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      Cplx w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Cplx u = x[i + k];
        const Cplx v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& v : x) v *= inv_n;
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
