// FFT and window functions for spectral analysis of DAC output waveforms.
// Radix-2 iterative Cooley–Tukey for power-of-two lengths (twiddles from a
// table built once per size with mathx::cos/sin), a half-size real-input
// transform for real power-of-two records, and Bluestein's chirp-z
// algorithm for arbitrary lengths (needed for coherent captures of "50
// periods" style records whose length is not a power of two).
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace csdac::mathx {

using Cplx = std::complex<double>;

/// In-place forward FFT; n must be a power of two.
void fft_pow2(std::vector<Cplx>& x, bool inverse = false);

/// Bins 0 .. n/2 of the forward DFT of a real record whose length n is a
/// power of two >= 2, into `out` (resized to n/2 + 1): one n/2-point
/// complex FFT of the samples packed pairwise as (even, odd), then the
/// split into the real transform's bins.
void fft_real_pow2(const std::vector<double>& x, std::vector<Cplx>& out);

/// Forward DFT of arbitrary length (Bluestein when n is not a power of two).
std::vector<Cplx> dft(const std::vector<Cplx>& x, bool inverse = false);

/// DFT of a real sequence; returns the full complex spectrum (length n).
std::vector<Cplx> dft_real(const std::vector<double>& x);

/// Single-sided magnitude spectrum in dB relative to full scale `fs_ref`
/// (i.e. 20*log10(2*|X[k]|/(n*fs_ref)) for 0<k<n/2; DC uses |X[0]|/n).
std::vector<double> magnitude_db(const std::vector<Cplx>& spectrum,
                                 double fs_ref);

/// Window functions (length n, applied multiplicatively).
enum class Window { kRect, kHann, kBlackmanHarris4 };

/// Returns the window coefficients.
std::vector<double> make_window(Window w, std::size_t n);

/// Coherent-processing gain of the window (mean of coefficients).
double window_coherent_gain(Window w, std::size_t n);

/// True if n is a power of two (n >= 1).
bool is_pow2(std::size_t n);

}  // namespace csdac::mathx
