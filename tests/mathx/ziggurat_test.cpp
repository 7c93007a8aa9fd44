// Statistical validation of the ziggurat Gaussian sampler (mathx::normal
// and its lane instance normal_batch_xN), over 2^22 fixed-seed draws:
//
//  * shape — a Kolmogorov-Smirnov test against normal_cdf;
//  * tails — the counts beyond r (the tail method's whole domain) and
//    beyond 4.5 within 4 sigma of their binomial expectation;
//  * sign — negative draws within 4 sigma of half;
//  * layers — chi-square of the draws' occupancy of the intervals between
//    consecutive layer edges, against the normal probability of each;
//  * tables — the table bytes pinned by hash128, so a changed constant,
//    recurrence or transcendental shows as a diff, not as a shifted
//    statistic.
//
// Every threshold is a 99.9 % (or 4 sigma) acceptance bound at a fixed
// seed: a failure is a sampler defect, not bad luck to re-seed away.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "mathx/hash.hpp"
#include "mathx/rare_event.hpp"
#include "mathx/rng.hpp"
#include "mathx/simd.hpp"
#include "mathx/stats.hpp"

namespace csdac::mathx {
namespace {

constexpr std::size_t kDraws = std::size_t{1} << 22;

const std::vector<double>& draws() {
  static const std::vector<double> z = [] {
    std::vector<double> v(kDraws);
    Xoshiro256 rng = stream_rng(20260, 0);
    for (double& x : v) x = normal(rng);
    return v;
  }();
  return z;
}

/// |count - n p| within 4 binomial standard deviations.
void expect_binomial(std::size_t count, double p, const char* what) {
  const double n = static_cast<double>(kDraws);
  const double sd = std::sqrt(n * p * (1.0 - p));
  EXPECT_LE(std::abs(static_cast<double>(count) - n * p), 4.0 * sd)
      << what << ": " << count << " vs expected " << n * p;
}

TEST(ZigguratStat, KolmogorovSmirnovAgainstNormalCdf) {
  std::vector<double> z = draws();
  std::sort(z.begin(), z.end());
  const double n = static_cast<double>(z.size());
  double d = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    const double f = normal_cdf(z[i]);
    d = std::max({d, static_cast<double>(i + 1) / n - f,
                  f - static_cast<double>(i) / n});
  }
  EXPECT_LT(std::sqrt(n) * d, kolmogorov_quantile(0.999)) << "D = " << d;
}

TEST(ZigguratStat, TailCountsMatchTheNormalTail) {
  std::size_t beyond_r = 0, beyond_45 = 0;
  for (double x : draws()) {
    beyond_r += std::abs(x) > detail::kZigguratR;
    beyond_45 += std::abs(x) > 4.5;
  }
  expect_binomial(beyond_r, 2.0 * normal_cdf(-detail::kZigguratR),
                  "|z| > r");
  expect_binomial(beyond_45, 2.0 * normal_cdf(-4.5), "|z| > 4.5");
  EXPECT_GT(beyond_45, 0u);
}

TEST(ZigguratStat, SignsAreSymmetric) {
  std::size_t negative = 0;
  for (double x : draws()) negative += x < 0.0;
  expect_binomial(negative, 0.5, "negative draws");
}

TEST(ZigguratStat, LayerOccupancyPassesChiSquare) {
  // Ascending edges 0 = x[256] < x[255] < ... < x[1] = r; bin j holds
  // |z| in [edge[j], edge[j + 1]), the last bin everything beyond r.
  const detail::ZigguratTables& t = detail::ziggurat_tables();
  std::vector<double> edge(256);
  for (int j = 0; j < 256; ++j) edge[j] = t.x[256 - j];
  std::vector<double> count(256, 0.0);
  for (double x : draws()) {
    const auto it = std::upper_bound(edge.begin(), edge.end(), std::abs(x));
    count[static_cast<std::size_t>(it - edge.begin()) - 1] += 1.0;
  }
  const double n = static_cast<double>(kDraws);
  double chi2 = 0.0;
  for (int j = 0; j < 256; ++j) {
    const double hi = j + 1 < 256 ? normal_cdf(edge[j + 1]) : 1.0;
    const double expected = n * 2.0 * (hi - normal_cdf(edge[j]));
    ASSERT_GT(expected, 100.0) << "bin " << j;
    chi2 += (count[j] - expected) * (count[j] - expected) / expected;
  }
  // 99.9th percentile of chi-square with 255 degrees of freedom
  // (Wilson-Hilferty, z = 3.0902).
  const double k = 255.0;
  const double q = k * std::pow(1.0 - 2.0 / (9.0 * k) +
                                    3.0902 * std::sqrt(2.0 / (9.0 * k)),
                                3.0);
  EXPECT_LT(chi2, q);
}

TEST(Ziggurat, TablesAreThePublishedLayering) {
  const detail::ZigguratTables& t = detail::ziggurat_tables();
  EXPECT_EQ(t.x[1], detail::kZigguratR);
  EXPECT_EQ(t.x[256], 0.0);
  EXPECT_EQ(t.f[256], 1.0);
  for (int i = 0; i < 256; ++i) ASSERT_GT(t.x[i], t.x[i + 1]) << "layer " << i;
  // The top layer closes the recurrence: its area is v to a few ulps.
  EXPECT_NEAR(t.x[255] * (1.0 - t.f[255]), detail::kZigguratV, 1e-9);
}

TEST(Ziggurat, TableBytesArePinned) {
  // A change here moves every Monte-Carlo result: bump the engine version
  // and regenerate the goldens with it.
  const detail::ZigguratTables& t = detail::ziggurat_tables();
  EXPECT_EQ(hash128(&t, sizeof(t)).hex(),
            "5fc038876e14f7580453df3f2b7d7350");
}

}  // namespace
}  // namespace csdac::mathx
