#include "mathx/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "mathx/rng.hpp"

namespace csdac::mathx {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(Fft, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(1000));
}

TEST(Fft, DeltaFunctionIsFlat) {
  std::vector<Cplx> x(8, Cplx{});
  x[0] = Cplx(1.0, 0.0);
  fft_pow2(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 256;
  const std::size_t bin = 19;
  std::vector<Cplx> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = 2.0 * kPi * static_cast<double>(bin * i) /
                      static_cast<double>(n);
    x[i] = Cplx(std::cos(ph), 0.0);
  }
  fft_pow2(x);
  for (std::size_t k = 0; k < n; ++k) {
    const double expected = (k == bin || k == n - bin) ? n / 2.0 : 0.0;
    EXPECT_NEAR(std::abs(x[k]), expected, 1e-8) << "bin " << k;
  }
}

TEST(Fft, ForwardInverseRoundTrip) {
  Xoshiro256 rng(7);
  std::vector<Cplx> x(128);
  for (auto& v : x) v = Cplx(uniform(rng, -1, 1), uniform(rng, -1, 1));
  auto y = x;
  fft_pow2(y);
  fft_pow2(y, /*inverse=*/true);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-10);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-10);
  }
}

TEST(Fft, ThrowsOnNonPow2) {
  std::vector<Cplx> x(12);
  EXPECT_THROW(fft_pow2(x), std::invalid_argument);
  std::vector<Cplx> out;
  EXPECT_THROW(fft_real_pow2(std::vector<double>(12), out),
               std::invalid_argument);
  EXPECT_THROW(fft_real_pow2(std::vector<double>(1), out),
               std::invalid_argument);
}

TEST(Fft, RealInputMatchesComplexTransform) {
  // The half-size transform plus split gives bins 0 .. n/2 of the full
  // complex FFT of the same record, at every size down to n = 2.
  Xoshiro256 rng(21);
  for (std::size_t n = 2; n <= 4096; n <<= 1) {
    std::vector<double> x(n);
    std::vector<Cplx> c(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = uniform(rng, -1, 1);
      c[i] = Cplx(x[i], 0.0);
    }
    fft_pow2(c);
    std::vector<Cplx> half;
    fft_real_pow2(x, half);
    ASSERT_EQ(half.size(), n / 2 + 1);
    const double tol = 1e-13 * static_cast<double>(n);
    for (std::size_t k = 0; k <= n / 2; ++k) {
      EXPECT_NEAR(half[k].real(), c[k].real(), tol) << n << " bin " << k;
      EXPECT_NEAR(half[k].imag(), c[k].imag(), tol) << n << " bin " << k;
    }
  }
}

TEST(Dft, BluesteinMatchesNaiveDft) {
  // Non-power-of-two length exercises the chirp-z path.
  const std::size_t n = 50;
  Xoshiro256 rng(11);
  std::vector<Cplx> x(n);
  for (auto& v : x) v = Cplx(uniform(rng, -1, 1), uniform(rng, -1, 1));
  const auto fast = dft(x);
  for (std::size_t k = 0; k < n; ++k) {
    Cplx ref{};
    for (std::size_t m = 0; m < n; ++m) {
      const double ph = -2.0 * kPi * static_cast<double>(k * m) /
                        static_cast<double>(n);
      ref += x[m] * Cplx(std::cos(ph), std::sin(ph));
    }
    EXPECT_NEAR(std::abs(fast[k] - ref), 0.0, 1e-8) << "bin " << k;
  }
}

TEST(Dft, BluesteinInverseRoundTrip) {
  const std::size_t n = 150;  // 150 = 2*3*5^2, not a power of two
  Xoshiro256 rng(13);
  std::vector<Cplx> x(n);
  for (auto& v : x) v = Cplx(uniform(rng, -1, 1), uniform(rng, -1, 1));
  const auto y = dft(dft(x), /*inverse=*/true);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-9);
  }
}

TEST(Dft, RealWrapperConjugateSymmetry) {
  std::vector<double> x = {1.0, 2.0, -0.5, 0.25, 3.0, -1.0, 0.0, 0.5};
  const auto s = dft_real(x);
  const std::size_t n = x.size();
  for (std::size_t k = 1; k < n / 2; ++k) {
    EXPECT_NEAR(s[k].real(), s[n - k].real(), 1e-12);
    EXPECT_NEAR(s[k].imag(), -s[n - k].imag(), 1e-12);
  }
}

TEST(MagnitudeDb, FullScaleToneReadsZeroDb) {
  const std::size_t n = 1024;
  const std::size_t bin = 101;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * kPi * static_cast<double>(bin * i) /
                    static_cast<double>(n));
  }
  const auto db = magnitude_db(dft_real(x), /*fs_ref=*/1.0);
  EXPECT_NEAR(db[bin], 0.0, 1e-6);
  // All other bins far below.
  for (std::size_t k = 1; k < db.size(); ++k) {
    if (k == bin) continue;
    EXPECT_LT(db[k], -200.0) << "bin " << k;
  }
}

TEST(WindowFn, HannSumsToHalf) {
  const auto g = window_coherent_gain(Window::kHann, 1024);
  EXPECT_NEAR(g, 0.5, 1e-3);
}

TEST(WindowFn, RectIsUnity) {
  const auto w = make_window(Window::kRect, 16);
  for (double v : w) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(WindowFn, BlackmanHarrisEdgesNearZero) {
  const auto w = make_window(Window::kBlackmanHarris4, 256);
  EXPECT_LT(w[0], 1e-4);
  EXPECT_NEAR(w[128], 1.0, 1e-3);  // periodic window peaks at n/2
}

TEST(WindowFn, CoherentGainMatchesWindowMean) {
  // The coherent gain IS the mean of the window samples — the DFT of a
  // windowed coherent tone scales its fundamental bin by exactly that.
  for (const auto win :
       {Window::kRect, Window::kHann, Window::kBlackmanHarris4}) {
    for (const std::size_t n : {64u, 256u, 1000u}) {
      const auto w = make_window(win, n);
      double mean = 0.0;
      for (double v : w) mean += v;
      mean /= static_cast<double>(n);
      EXPECT_NEAR(window_coherent_gain(win, n), mean, 1e-12)
          << static_cast<int>(win) << " n=" << n;
    }
  }
  // Textbook values for the periodic windows.
  EXPECT_NEAR(window_coherent_gain(Window::kHann, 4096), 0.5, 1e-3);
  EXPECT_NEAR(window_coherent_gain(Window::kBlackmanHarris4, 4096), 0.35875,
              1e-3);
}

TEST(WindowFn, HannMainlobeConfinesNonCoherentLeakage) {
  // A tone landing exactly between bins: rectangular leakage decays as
  // 1/|k - k0| and pollutes the whole spectrum, while Hann's raised-
  // cosine sidelobes are at least 31 dB down and fall much faster.  Probe
  // the floor 20 bins away from the tone.
  const std::size_t n = 256;
  const double k0 = 40.5;
  std::vector<Cplx> rect_in(n), hann_in(n);
  const auto hann = make_window(Window::kHann, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double s =
        std::sin(2.0 * std::numbers::pi * k0 * static_cast<double>(i) / n);
    rect_in[i] = Cplx(s, 0.0);
    hann_in[i] = Cplx(s * hann[i], 0.0);
  }
  fft_pow2(rect_in);
  fft_pow2(hann_in);
  const auto& rect_spec = rect_in;
  const auto& hann_spec = hann_in;
  const auto floor_db = [&](const std::vector<Cplx>& spec) {
    const double peak = std::abs(spec[40]);
    double worst = 0.0;
    for (std::size_t k = 61; k < n / 2; ++k) {
      worst = std::max(worst, std::abs(spec[k]));
    }
    return 20.0 * std::log10(worst / peak);
  };
  const double rect_floor = floor_db(rect_spec);
  const double hann_floor = floor_db(hann_spec);
  EXPECT_GT(rect_floor, -40.0);  // rect leakage stays high
  EXPECT_LT(hann_floor, -60.0);  // Hann buries it
  EXPECT_LT(hann_floor, rect_floor - 25.0);
}

}  // namespace
}  // namespace csdac::mathx
