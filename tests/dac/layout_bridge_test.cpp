#include "layout_bridge.hpp"

#include <gtest/gtest.h>

#include "mathx/stats.hpp"

namespace csdac::dac {
namespace {

using layout::ArrayGeometry;
using layout::GradientSpec;
using layout::make_sequence;
using layout::SwitchingScheme;

struct Fixture {
  core::DacSpec spec;  // 12 bit, b = 4, 255 unary
  ArrayGeometry geo{16, 16};
  mathx::Xoshiro256 rng{99};
};

TEST(LayoutBridge, NoErrorsGiveIdealChip) {
  Fixture f;
  const auto seq = make_sequence(SwitchingScheme::kRowMajor, f.geo, 255);
  const auto e = source_errors_from_layout(f.spec, f.geo, seq,
                                           GradientSpec{}, 0.0, f.rng);
  const SegmentedDac chip(f.spec, e);
  const auto m = analyze_transfer(chip.transfer());
  EXPECT_NEAR(m.inl_max, 0.0, 1e-9);
}

TEST(LayoutBridge, SequenceLengthValidated) {
  Fixture f;
  const std::vector<int> short_seq = {0, 1, 2};
  EXPECT_THROW(source_errors_from_layout(f.spec, f.geo, short_seq,
                                         GradientSpec{}, 0.0, f.rng),
               std::invalid_argument);
}

TEST(LayoutBridge, GoodSchemeBeatsRasterUnderGradient) {
  // End-to-end Section 4 claim: the gradient-compensating switching order
  // buys real INL on the full converter, not just on the unary ramp.
  Fixture f;
  const GradientSpec g{0.01, 0.008, 0.005};
  const auto raster = make_sequence(SwitchingScheme::kRowMajor, f.geo, 255);
  const auto hier =
      make_sequence(SwitchingScheme::kHierarchical, f.geo, 255);
  // Systematic only, no double-centroid so the raster damage is visible.
  mathx::Xoshiro256 rng1(1), rng2(1);
  const double inl_raster = layout_chip_inl(
      f.spec, f.geo, raster, g, 0.0, rng1, /*double_centroid=*/false);
  const double inl_hier = layout_chip_inl(f.spec, f.geo, hier, g, 0.0, rng2,
                                          /*double_centroid=*/false);
  EXPECT_GT(inl_raster, 3.0 * inl_hier);
}

TEST(LayoutBridge, DoubleCentroidRemovesLinearComponent) {
  Fixture f;
  const GradientSpec g{0.02, 0.01, 0.0};  // purely linear
  const auto seq = make_sequence(SwitchingScheme::kRowMajor, f.geo, 255);
  mathx::Xoshiro256 rng1(1), rng2(1);
  const double with_dc =
      layout_chip_inl(f.spec, f.geo, seq, g, 0.0, rng1, true);
  const double without_dc =
      layout_chip_inl(f.spec, f.geo, seq, g, 0.0, rng2, false);
  EXPECT_LT(with_dc, 0.01);
  EXPECT_GT(without_dc, 1.0);
}

TEST(LayoutBridge, RandomAndSystematicCombine) {
  // With both error sources the INL must exceed either alone (statistically
  // over several chips).
  Fixture f;
  const GradientSpec g{0.0, 0.0, 0.015};
  const auto seq = make_sequence(SwitchingScheme::kRowMajor, f.geo, 255);
  const double sigma = 0.005;
  mathx::RunningStats both, rand_only;
  for (int chip = 0; chip < 12; ++chip) {
    mathx::Xoshiro256 rng_a(100 + chip), rng_b(100 + chip);
    both.add(layout_chip_inl(f.spec, f.geo, seq, g, sigma, rng_a, false));
    rand_only.add(layout_chip_inl(f.spec, f.geo, seq, GradientSpec{}, sigma,
                                  rng_b, false));
  }
  EXPECT_GT(both.mean(), rand_only.mean());
}

TEST(LayoutBridge, CentroidBalancedSchemeControlsLinearGradients) {
  Fixture f;
  const GradientSpec g{0.01, 0.01, 0.0};
  const auto walk =
      make_sequence(SwitchingScheme::kCentroidBalanced, f.geo, 255, 3);
  const auto raster = make_sequence(SwitchingScheme::kRowMajor, f.geo, 255);
  mathx::Xoshiro256 rng1(1), rng2(1);
  const double inl_walk =
      layout_chip_inl(f.spec, f.geo, walk, g, 0.0, rng1, false);
  const double inl_raster =
      layout_chip_inl(f.spec, f.geo, raster, g, 0.0, rng2, false);
  EXPECT_LT(inl_walk, 0.25 * inl_raster);
}

}  // namespace
}  // namespace csdac::dac
