// Test support bridging the physical design (layout module) and the
// behavioral converter model: builds a SegmentedDac whose unary sources
// carry BOTH the systematic gradient error implied by their array position
// / switching order AND a random Pelgrom draw — the complete static error
// budget of the fabricated chip (Sections 1 + 4 combined). Only the
// layout-bridge tests build chips this way, so it lives beside them, not in
// the dac library.
#pragma once

#include <cmath>
#include <stdexcept>
#include <vector>

#include "dac/dac_model.hpp"
#include "dac/static_analysis.hpp"
#include "layout/gradient.hpp"
#include "layout/switching.hpp"
#include "mathx/rng.hpp"

namespace csdac::dac {

/// Builds the per-source error set for a chip placed on `geo` with the
/// switching order `sequence` under systematic gradient `gradient`, with
/// random unit mismatch `sigma_unit` (0 disables the random part).
/// `double_centroid` applies the 16-sub-unit common-centroid split to the
/// systematic component. The binary sources sit in the dedicated center
/// columns (Fig. 5), i.e. at x ~ 0; their systematic error uses the array
/// center value.
inline SourceErrors source_errors_from_layout(
    const core::DacSpec& spec, const layout::ArrayGeometry& geo,
    const std::vector<int>& sequence, const layout::GradientSpec& gradient,
    double sigma_unit, mathx::Xoshiro256& rng, bool double_centroid = true) {
  if (sequence.size() != static_cast<std::size_t>(spec.num_unary())) {
    throw std::invalid_argument(
        "source_errors_from_layout: sequence length != num_unary");
  }
  const auto sys =
      layout::sequence_errors(geo, sequence, gradient, double_centroid);
  SourceErrors e;
  const double uw = spec.unary_weight();
  e.unary.reserve(sys.size());
  for (double err_sys : sys) {
    const double rand_part =
        sigma_unit > 0.0
            ? sigma_unit * std::sqrt(uw) * mathx::normal(rng) / uw
            : 0.0;
    e.unary.push_back(uw * (1.0 + err_sys + rand_part));
  }
  // Binary sources in the center columns: x ~ 0, y spread around center;
  // their systematic error is the gradient value at the array center.
  const double center_err = gradient.error_at(0.0, 0.0);
  for (int k = 0; k < spec.binary_bits; ++k) {
    const double w = std::ldexp(1.0, k);
    const double rand_part =
        sigma_unit > 0.0
            ? sigma_unit * std::sqrt(w) * mathx::normal(rng) / w
            : 0.0;
    e.binary.push_back(w * (1.0 + center_err + rand_part));
  }
  return e;
}

/// Convenience: max |INL| (best-fit, LSB) of a chip with the given layout
/// and error budget.
inline double layout_chip_inl(const core::DacSpec& spec,
                              const layout::ArrayGeometry& geo,
                              const std::vector<int>& sequence,
                              const layout::GradientSpec& gradient,
                              double sigma_unit, mathx::Xoshiro256& rng,
                              bool double_centroid = true) {
  const SegmentedDac chip(
      spec, source_errors_from_layout(spec, geo, sequence, gradient,
                                      sigma_unit, rng, double_centroid));
  return analyze_transfer(chip.transfer()).inl_max;
}

}  // namespace csdac::dac
