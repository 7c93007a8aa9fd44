// Golden regression for static linearity: a fixed-seed 8-bit transfer
// function with checked-in expected INL/DNL vectors. Guards
// analyze_transfer, the DAC model, and the (seed, chip) RNG stream
// derivation against silent refactor drift. If a change to any of these is
// INTENTIONAL, regenerate the golden file (see tools/gen_golden_static.cpp)
// and say so in the commit message.
#include <gtest/gtest.h>

#include <vector>

#include "chip_oracle.hpp"
#include "dac/lane_kernel.hpp"
#include "dac/static_analysis.hpp"
#include "mathx/rng.hpp"
#include "mathx/simd.hpp"

namespace csdac::dac {
namespace {

#include "golden_static_12bit.inc"
#include "golden_static_8bit.inc"

constexpr double kTol = 1e-12;

std::vector<double> golden_transfer() {
  core::DacSpec spec;
  spec.nbits = 8;
  spec.binary_bits = 3;
  mathx::Xoshiro256 rng = mathx::stream_rng(8811, 0);
  return SegmentedDac(spec, draw_source_errors(spec, 0.01, rng)).transfer();
}

TEST(GoldenStatic, TransferMatchesCheckedInLevels) {
  const auto levels = golden_transfer();
  ASSERT_EQ(levels.size(), std::size(kGoldenLevels));
  for (std::size_t i = 0; i < levels.size(); ++i) {
    EXPECT_NEAR(levels[i], kGoldenLevels[i], kTol) << "code " << i;
  }
}

TEST(GoldenStatic, BestFitInlDnlMatchGolden) {
  const auto m = analyze_transfer(golden_transfer(), InlReference::kBestFit);
  ASSERT_EQ(m.inl.size(), std::size(kGoldenInlBestFit));
  ASSERT_EQ(m.dnl.size(), std::size(kGoldenDnlBestFit));
  for (std::size_t i = 0; i < m.inl.size(); ++i) {
    EXPECT_NEAR(m.inl[i], kGoldenInlBestFit[i], kTol) << "code " << i;
  }
  for (std::size_t i = 0; i < m.dnl.size(); ++i) {
    EXPECT_NEAR(m.dnl[i], kGoldenDnlBestFit[i], kTol) << "transition " << i;
  }
  EXPECT_NEAR(m.inl_max, kGoldenInlMaxBestFit, kTol);
  EXPECT_NEAR(m.dnl_max, kGoldenDnlMaxBestFit, kTol);
}

TEST(GoldenStatic, EndpointInlMatchesGolden) {
  const auto m = analyze_transfer(golden_transfer(), InlReference::kEndpoint);
  ASSERT_EQ(m.inl.size(), std::size(kGoldenInlEndpoint));
  for (std::size_t i = 0; i < m.inl.size(); ++i) {
    EXPECT_NEAR(m.inl[i], kGoldenInlEndpoint[i], kTol) << "code " << i;
  }
  EXPECT_NEAR(m.inl_max, kGoldenInlMaxEndpoint, kTol);
}

// ---- 12-bit golden: the paper's design point, strided vectors ----------

std::vector<double> golden12_transfer() {
  const core::DacSpec spec;  // 12 bit, b = 4
  mathx::Xoshiro256 rng = mathx::stream_rng(1212, 0);
  return SegmentedDac(spec, draw_source_errors(spec, 0.0026, rng)).transfer();
}

TEST(GoldenStatic12Bit, TransferMatchesCheckedInLevels) {
  const auto levels = golden12_transfer();
  ASSERT_EQ(levels.size(), kGolden12Stride * std::size(kGolden12Levels));
  for (std::size_t i = 0; i < std::size(kGolden12Levels); ++i) {
    EXPECT_NEAR(levels[i * kGolden12Stride], kGolden12Levels[i], kTol)
        << "code " << i * kGolden12Stride;
  }
}

TEST(GoldenStatic12Bit, BestFitInlDnlMatchGolden) {
  const auto m = analyze_transfer(golden12_transfer(),
                                  InlReference::kBestFit);
  for (std::size_t i = 0; i < std::size(kGolden12InlBestFit); ++i) {
    EXPECT_NEAR(m.inl[i * kGolden12Stride], kGolden12InlBestFit[i], kTol)
        << "code " << i * kGolden12Stride;
  }
  for (std::size_t i = 0; i < std::size(kGolden12DnlBestFit); ++i) {
    EXPECT_NEAR(m.dnl[i * kGolden12Stride], kGolden12DnlBestFit[i], kTol)
        << "transition " << i * kGolden12Stride;
  }
  EXPECT_NEAR(m.inl_max, kGolden12InlMaxBestFit, kTol);
  EXPECT_NEAR(m.dnl_max, kGolden12DnlMaxBestFit, kTol);
}

TEST(GoldenStatic12Bit, EndpointInlMatchesGolden) {
  const auto m = analyze_transfer(golden12_transfer(),
                                  InlReference::kEndpoint);
  for (std::size_t i = 0; i < std::size(kGolden12InlEndpoint); ++i) {
    EXPECT_NEAR(m.inl[i * kGolden12Stride], kGolden12InlEndpoint[i], kTol)
        << "code " << i * kGolden12Stride;
  }
  EXPECT_NEAR(m.inl_max, kGolden12InlMaxEndpoint, kTol);
  EXPECT_NEAR(m.dnl_max, kGolden12DnlMaxEndpoint, kTol);
}

// ---- Chip kernels: EXACT equality with the allocating chain -----------
// The golden files absorb ulp drift with a tolerance; the maxima-only
// summary and the lane kernels have no such allowance — they must be
// bit-identical to analyze_transfer over SegmentedDac::transfer by
// construction (same level adds, monotone-division summary). These tests
// pin that with EXPECT_EQ on doubles.

TEST(GoldenStatic12Bit, WorkspaceAnalysisBitIdentical) {
  const core::DacSpec spec;
  for (std::int64_t chip = 0; chip < 4; ++chip) {
    const std::vector<double> levels = oracle::chip_transfer(
        spec, 0.0026, 1212, static_cast<std::uint64_t>(chip));
    for (const auto ref : {InlReference::kBestFit, InlReference::kEndpoint}) {
      const StaticSummary summary = analyze_levels_summary(levels, ref);
      const StaticMetrics legacy = analyze_transfer(levels, ref);
      EXPECT_EQ(summary.inl_max, legacy.inl_max) << "chip " << chip;
      EXPECT_EQ(summary.dnl_max, legacy.dnl_max) << "chip " << chip;
    }
  }
}

TEST(GoldenStatic12Bit, LaneKernelMatchesAllocatingChain) {
  const core::DacSpec spec;
  for (const mathx::SimdBackend b :
       {mathx::SimdBackend::kScalar, mathx::SimdBackend::kSse2,
        mathx::SimdBackend::kAvx2}) {
    const LaneKernel* k = lane_kernel(b);
    if (k == nullptr) continue;
    ChipWorkspaceXN ws(spec, k->lanes);
    for (std::int64_t chip0 = 0; chip0 < 8; chip0 += k->lanes) {
      StaticSummary s[kMaxSimdLanes];
      k->mc_values(ws, 0.0026, 1212, chip0, InlReference::kBestFit, s);
      for (int l = 0; l < k->lanes; ++l) {
        const StaticMetrics m = analyze_transfer(oracle::chip_transfer(
            spec, 0.0026, 1212, static_cast<std::uint64_t>(chip0 + l)));
        EXPECT_EQ(s[l].inl_max, m.inl_max)
            << mathx::simd_backend_name(b) << " chip " << chip0 + l;
        EXPECT_EQ(s[l].dnl_max, m.dnl_max)
            << mathx::simd_backend_name(b) << " chip " << chip0 + l;
      }
    }
  }
}

}  // namespace
}  // namespace csdac::dac
