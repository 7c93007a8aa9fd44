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

/// The ideal (error-free) realization.
SourceErrors ideal_sources(const core::DacSpec& spec);

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
