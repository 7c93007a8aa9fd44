#include "dac/dac_model.hpp"

#include <cmath>
#include <stdexcept>

namespace csdac::dac {

SourceErrors draw_source_errors(const core::DacSpec& spec, double sigma_unit,
                                mathx::Xoshiro256& rng) {
  if (!(sigma_unit >= 0.0)) {
    throw std::invalid_argument("draw_source_errors: sigma < 0");
  }
  SourceErrors e;
  const double uw = spec.unary_weight();
  e.unary.reserve(static_cast<std::size_t>(spec.num_unary()));
  for (int i = 0; i < spec.num_unary(); ++i) {
    // Sum of `uw` independent unit draws: sigma scales with sqrt(weight).
    e.unary.push_back(uw + sigma_unit * std::sqrt(uw) * mathx::normal(rng));
  }
  e.binary.reserve(static_cast<std::size_t>(spec.binary_bits));
  for (int k = 0; k < spec.binary_bits; ++k) {
    const double w = std::ldexp(1.0, k);
    e.binary.push_back(w + sigma_unit * std::sqrt(w) * mathx::normal(rng));
  }
  return e;
}

SourceErrors ideal_sources(const core::DacSpec& spec) {
  SourceErrors e;
  for (int i = 0; i < spec.num_unary(); ++i) {
    e.unary.push_back(spec.unary_weight());
  }
  for (int k = 0; k < spec.binary_bits; ++k) {
    e.binary.push_back(std::ldexp(1.0, k));
  }
  return e;
}

namespace {

// Sum of the selected binary sources in increasing bit order, accumulated
// separately from the unary prefix. Keeping this sub-sum self-contained is
// what lets the lane kernels tabulate all 2^b of them per chip and stay
// bit-identical: their binsum[j] adds the top set bit's source to
// binsum[j without that bit], which is the prefix of this same
// ascending-bit accumulation, so every rounding is the same.
inline double binary_partial_sum(const std::vector<double>& binary,
                                 int bits) {
  double s = 0.0;
  for (int k = 0; bits != 0; ++k, bits >>= 1) {
    if (bits & 1) s += binary[static_cast<std::size_t>(k)];
  }
  return s;
}

// The one level computation: prefix sum of the switched-on unary sources
// plus the binary partial sum, one rounded add (the lane kernels form
// their levels with the same add).
inline double code_level(const std::vector<double>& unary_prefix,
                         const std::vector<double>& binary, int code,
                         int binary_bits) {
  return unary_prefix[static_cast<std::size_t>(code >> binary_bits)] +
         binary_partial_sum(binary, code & ((1 << binary_bits) - 1));
}

}  // namespace

SegmentedDac::SegmentedDac(const core::DacSpec& spec, SourceErrors errors)
    : spec_(spec), errors_(std::move(errors)) {
  spec_.validate();
  if (errors_.unary.size() != static_cast<std::size_t>(spec_.num_unary()) ||
      errors_.binary.size() !=
          static_cast<std::size_t>(spec_.binary_bits)) {
    throw std::invalid_argument("SegmentedDac: error vector size mismatch");
  }
  unary_prefix_.assign(errors_.unary.size() + 1, 0.0);
  for (std::size_t i = 0; i < errors_.unary.size(); ++i) {
    unary_prefix_[i + 1] = unary_prefix_[i] + errors_.unary[i];
  }
}

int SegmentedDac::unary_count(int code) const {
  return code >> spec_.binary_bits;
}

int SegmentedDac::binary_field(int code) const {
  return code & ((1 << spec_.binary_bits) - 1);
}

double SegmentedDac::level(int code) const {
  if (code < 0 || code >= (1 << spec_.nbits)) {
    throw std::out_of_range("SegmentedDac::level: code out of range");
  }
  return code_level(unary_prefix_, errors_.binary, code, spec_.binary_bits);
}

std::vector<double> SegmentedDac::transfer() const {
  const int n_codes = 1 << spec_.nbits;
  std::vector<double> out(static_cast<std::size_t>(n_codes));
  for (int c = 0; c < n_codes; ++c) {
    out[static_cast<std::size_t>(c)] =
        code_level(unary_prefix_, errors_.binary, c, spec_.binary_bits);
  }
  return out;
}

double SegmentedDac::unary_partial_sum(int k) const {
  if (k < 0 || k > spec_.num_unary()) {
    throw std::out_of_range("unary_partial_sum: bad k");
  }
  return unary_prefix_[static_cast<std::size_t>(k)];
}

}  // namespace csdac::dac
