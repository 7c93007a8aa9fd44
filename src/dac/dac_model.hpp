// Behavioral model of the segmented current-steering DAC (Fig. 1): the
// thermometer-decoded unary segment plus the binary-weighted segment, with
// per-source random mismatch. Levels are expressed in LSB units of current;
// the dynamic model converts them to output voltage across R_L.
#pragma once

#include <vector>

#include "core/spec.hpp"
#include "mathx/rng.hpp"

namespace csdac::dac {

/// One chip's realization of the source errors (in LSB units).
struct SourceErrors {
  /// Actual weight of each unary source (nominal = 2^b each).
  std::vector<double> unary;
  /// Actual weight of each binary source, index k nominal 2^k.
  std::vector<double> binary;
};

/// Draws a chip: every LSB unit is an independent Gaussian with relative
/// sigma `sigma_unit`; a weight-w source is the sum of w units, so its
/// absolute sigma is sigma_unit * sqrt(w) LSB.
SourceErrors draw_source_errors(const core::DacSpec& spec, double sigma_unit,
                                mathx::Xoshiro256& rng);

/// Allocation-free draw into a preallocated SourceErrors (capacity is kept
/// across calls). Bit-identical draws to draw_source_errors.
void draw_source_errors_into(const core::DacSpec& spec, double sigma_unit,
                             mathx::Xoshiro256& rng, SourceErrors& out);

/// The ideal (error-free) realization.
SourceErrors ideal_sources(const core::DacSpec& spec);

/// Scratch for the allocation-free scalar chip body: every buffer the
/// draw → transfer → INL/DNL pipeline needs, preallocated once and reused
/// for every chip. The kernels that fill it live in static_analysis.hpp
/// (mc_chip_metrics) and calibration.hpp (cal_chip_passes) — the scalar
/// references the lane kernels are pinned against.
struct ChipWorkspace {
  explicit ChipWorkspace(const core::DacSpec& spec);

  core::DacSpec spec;     ///< validated copy
  mathx::Xoshiro256 rng;  ///< re-seeded per chip via stream_rng_into
  SourceErrors errors;    ///< mismatch draw
  SourceErrors trimmed;   ///< post-calibration scratch
  std::vector<double> unary_prefix;  ///< num_unary() + 1 prefix sums
  std::vector<double> binsum;        ///< 2^b binary partial sums (per chip)
  std::vector<double> levels;        ///< 2^n transfer levels
  std::vector<double> codes;         ///< fixed ramp 0..2^n-1 (best-fit x)
  std::vector<double> inl;           ///< per-code INL, 2^n
  std::vector<double> dnl;           ///< per-transition DNL, 2^n - 1
};

/// Allocation-free static transfer: prefix sums into ws.unary_prefix and
/// all 2^n levels into ws.levels. Bit-identical to
/// SegmentedDac(spec, errors).transfer().
void transfer_into(const core::DacSpec& spec, const SourceErrors& errors,
                   ChipWorkspace& ws);

/// Static DAC: maps codes to output levels given a source realization.
class SegmentedDac {
 public:
  SegmentedDac(const core::DacSpec& spec, SourceErrors errors);

  const core::DacSpec& spec() const { return spec_; }

  /// Thermometer decode of the m MSBs of `code`: how many unary sources on.
  int unary_count(int code) const;
  /// Binary field of `code`.
  int binary_field(int code) const;

  /// Output level for a code, in LSB units of current.
  double level(int code) const;

  /// All 2^n levels (the static transfer function).
  std::vector<double> transfer() const;

  /// Same levels written into `out` (resized to 2^n), reusing its capacity.
  void transfer_into(std::vector<double>& out) const;

  /// Sum of the weights of the first `k` unary sources in switching order.
  /// The switching order is the identity here; systematic-gradient ordering
  /// is the layout module's business.
  double unary_partial_sum(int k) const;

 private:
  core::DacSpec spec_;
  SourceErrors errors_;
  std::vector<double> unary_prefix_;  ///< prefix sums of unary weights
};

}  // namespace csdac::dac
