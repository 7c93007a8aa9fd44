// The lane kernels decide each chip's verdict (max|INL| or max|DNL| <
// limit) from the segmented decomposition of its transfer and walk every
// code exactly only when the decomposed metric lies within its certified
// rounding bound of the limit. These tests hold that scheme to its two
// promises, under every backend the CPU offers:
//   * the bound is honest: on every chip of a wide spec, sigma and
//     reference matrix, |decomposed - exact| <= bound / 4 (the bound
//     carries a safety factor of 4);
//   * the verdict is the oracle's: with the limit at a chip's exact metric
//     or one ulp either side of it, the flags equal the allocating chain's
//     and the exact walk ran.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "chip_oracle.hpp"
#include "core/accuracy.hpp"
#include "core/spec.hpp"
#include "dac/lane_kernel.hpp"
#include "dac/static_analysis.hpp"
#include "mathx/simd.hpp"
#include "obs/metrics.hpp"

namespace csdac::dac {
namespace {

using mathx::SimdBackend;

std::vector<const LaneKernel*> offered_kernels() {
  std::vector<const LaneKernel*> v;
  for (SimdBackend b :
       {SimdBackend::kScalar, SimdBackend::kSse2, SimdBackend::kAvx2}) {
    const LaneKernel* k = lane_kernel(b);
    if (k != nullptr && b <= mathx::simd_detect()) v.push_back(k);
  }
  return v;
}

core::DacSpec make_spec(int nbits, int binary_bits) {
  core::DacSpec spec;
  spec.nbits = nbits;
  spec.binary_bits = binary_bits;
  return spec;
}

// b in {0, 1, n/2, n-1}, without repeats.
std::vector<int> segmentations(int nbits) {
  std::vector<int> bs = {0, 1, nbits / 2, nbits - 1};
  std::sort(bs.begin(), bs.end());
  bs.erase(std::unique(bs.begin(), bs.end()), bs.end());
  return bs;
}

constexpr double kSigmaScales[] = {0.0, 0.5, 1.0, 3.0, 20.0};
constexpr InlReference kRefs[] = {InlReference::kBestFit,
                                  InlReference::kEndpoint};

TEST(LaneDecision, DecomposedMetricsWithinQuarterBound) {
  constexpr std::uint64_t kSeed = 8080;
  for (const LaneKernel* k : offered_kernels()) {
    SCOPED_TRACE(mathx::simd_backend_name(k->backend));
    std::int64_t chips = 0;
    double worst = 0.0;  // largest |fast - exact| / (bound / 4)
    for (int nbits = 2; nbits <= 16; ++nbits) {
      // 2^16 codes per configuration from 7 bits up, 1024 chips below.
      const int per_config =
          std::max(4, std::min(1024, 1 << std::max(0, 16 - nbits)));
      for (int b : segmentations(nbits)) {
        const core::DacSpec spec = make_spec(nbits, b);
        const double unit = core::unit_sigma_spec(nbits, spec.inl_yield);
        ChipWorkspaceXN ws(spec, k->lanes);
        for (double scale : kSigmaScales) {
          for (InlReference ref : kRefs) {
            for (std::int64_t chip0 = 0; chip0 < per_config;
                 chip0 += k->lanes) {
              StaticSummary exact[kMaxSimdLanes], fast[kMaxSimdLanes],
                  bound[kMaxSimdLanes];
              k->mc_values(ws, scale * unit, kSeed, chip0, ref, exact);
              k->mc_bounds(ws, scale * unit, kSeed, chip0, ref, fast,
                           bound);
              for (int l = 0; l < k->lanes; ++l) {
                ++chips;
                const double d_inl =
                    std::abs(fast[l].inl_max - exact[l].inl_max);
                const double d_dnl =
                    std::abs(fast[l].dnl_max - exact[l].dnl_max);
                ASSERT_TRUE(std::isfinite(bound[l].inl_max) &&
                            std::isfinite(bound[l].dnl_max))
                    << "nbits=" << nbits << " b=" << b << " scale=" << scale
                    << " chip " << chip0 + l;
                ASSERT_LE(d_inl, bound[l].inl_max / 4)
                    << "INL nbits=" << nbits << " b=" << b
                    << " scale=" << scale << " chip " << chip0 + l;
                ASSERT_LE(d_dnl, bound[l].dnl_max / 4)
                    << "DNL nbits=" << nbits << " b=" << b
                    << " scale=" << scale << " chip " << chip0 + l;
                worst = std::max(worst, d_inl / (bound[l].inl_max / 4));
                worst = std::max(worst, d_dnl / (bound[l].dnl_max / 4));
              }
            }
          }
        }
      }
    }
    EXPECT_GE(chips, 100000);
    RecordProperty(std::string("worst_fraction_of_bound_") +
                       mathx::simd_backend_name(k->backend),
                   testing::PrintToString(worst));
  }
}

TEST(LaneDecision, LimitsAtTheExactMetricFallBackAndMatchTheOracle) {
  constexpr std::uint64_t kSeed = 2424;
  const obs::Counter& exact_lanes =
      obs::Registry::global().counter("dac.decide.exact_lanes");
  for (const LaneKernel* k : offered_kernels()) {
    SCOPED_TRACE(mathx::simd_backend_name(k->backend));
    for (int nbits : {2, 3, 5, 8, 10, 13}) {
      for (int b : segmentations(nbits)) {
        const core::DacSpec spec = make_spec(nbits, b);
        const double unit = core::unit_sigma_spec(nbits, spec.inl_yield);
        ChipWorkspaceXN ws(spec, k->lanes);
        for (double scale : kSigmaScales) {
          const double sigma = scale * unit;
          for (InlReference ref : kRefs) {
            for (std::int64_t chip0 = 0; chip0 < 4; chip0 += k->lanes) {
              StaticMetrics want[kMaxSimdLanes];
              for (int l = 0; l < k->lanes; ++l) {
                want[l] = analyze_transfer(
                    oracle::chip_transfer(
                        spec, sigma, kSeed,
                        static_cast<std::uint64_t>(chip0 + l)),
                    ref);
              }
              for (ChipMetric metric :
                   {ChipMetric::kInl, ChipMetric::kDnl}) {
                const auto value = [&](int l) {
                  return metric == ChipMetric::kInl ? want[l].inl_max
                                                    : want[l].dnl_max;
                };
                for (int target = 0; target < k->lanes; ++target) {
                  const double e = value(target);
                  constexpr double kInf =
                      std::numeric_limits<double>::infinity();
                  for (double limit : {std::nextafter(e, -kInf), e,
                                       std::nextafter(e, kInf)}) {
                    const std::int64_t before = exact_lanes.value();
                    bool pass[kMaxSimdLanes];
                    k->mc_block(ws, sigma, kSeed, chip0, ref, metric, limit,
                                pass);
                    EXPECT_GE(exact_lanes.value() - before, 1)
                        << "nbits=" << nbits << " b=" << b
                        << " scale=" << scale << " chip " << chip0 + target
                        << " limit " << limit;
                    for (int l = 0; l < k->lanes; ++l) {
                      EXPECT_EQ(pass[l], value(l) < limit)
                          << "nbits=" << nbits << " b=" << b
                          << " scale=" << scale << " chip " << chip0 + l
                          << " limit " << limit;
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace csdac::dac
