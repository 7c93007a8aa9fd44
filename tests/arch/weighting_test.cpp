// Weighting-scheme algebra: completeness predicate, exact greedy encoding
// over every code for all four schemes, the forced-binary corollary at the
// minimal cell budget, and the golden activity ordering (optimized <=
// segmented < binary toggle-weighted activity at matched budgets).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "arch/weighting.hpp"
#include "mathx/rng.hpp"

namespace csdac::arch {
namespace {

std::vector<int> sine_codes(int nbits, int n, int cycles) {
  const int fs = (1 << nbits) - 1;
  const double mid = 0.5 * fs;
  const double amp = mid - 1.0;
  std::vector<int> codes(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    const double phase = 2.0 * 3.14159265358979323846 * cycles * k / n;
    long v = std::lround(mid + amp * std::sin(phase));
    v = std::max(0L, std::min(static_cast<long>(fs), v));
    codes[static_cast<std::size_t>(k)] = static_cast<int>(v);
  }
  return codes;
}

int weight_sum(const std::vector<int>& w) {
  return std::accumulate(w.begin(), w.end(), 0);
}

TEST(Weighting, NamesRoundTrip) {
  for (const auto kind :
       {WeightingKind::kBinary, WeightingKind::kUnary,
        WeightingKind::kSegmented, WeightingKind::kOptimized}) {
    WeightingKind parsed{};
    ASSERT_TRUE(parse_weighting_kind(weighting_name(kind), parsed));
    EXPECT_EQ(parsed, kind);
  }
  WeightingKind parsed{};
  EXPECT_FALSE(parse_weighting_kind("thermometer", parsed));
  EXPECT_FALSE(parse_weighting_kind("", parsed));
}

TEST(Weighting, CompletenessPredicate) {
  EXPECT_TRUE(is_complete_sequence({1}));
  EXPECT_TRUE(is_complete_sequence({1, 1, 1}));
  EXPECT_TRUE(is_complete_sequence({8, 4, 2, 1}));  // order irrelevant
  EXPECT_TRUE(is_complete_sequence({1, 2, 2, 2}));
  EXPECT_FALSE(is_complete_sequence({}));
  EXPECT_FALSE(is_complete_sequence({2}));        // no unit cell
  EXPECT_FALSE(is_complete_sequence({1, 3}));     // 2 not representable
  EXPECT_FALSE(is_complete_sequence({1, 2, 8}));  // gap between 3 and 8
}

TEST(Weighting, MakeWeightingShapes) {
  const auto bin = make_weighting(WeightingKind::kBinary, 6);
  EXPECT_EQ(bin.weights, (std::vector<int>{32, 16, 8, 4, 2, 1}));

  const auto una = make_weighting(WeightingKind::kUnary, 4);
  EXPECT_EQ(una.weights.size(), 15u);
  EXPECT_TRUE(std::all_of(una.weights.begin(), una.weights.end(),
                          [](int w) { return w == 1; }));

  const auto seg = make_weighting(WeightingKind::kSegmented, 8, 3);
  // (2^5 - 1) thermometer cells of weight 8 plus binary tail 4,2,1.
  EXPECT_EQ(seg.weights.size(), 31u + 3u);
  EXPECT_EQ(seg.weights.front(), 8);
  EXPECT_EQ(seg.weights.back(), 1);
  EXPECT_EQ(weight_sum(seg.weights), 255);
  EXPECT_TRUE(is_complete_sequence(seg.weights));

  // Default split mirrors core::DacSpec's nbits/3 convention.
  const auto seg_def = make_weighting(WeightingKind::kSegmented, 9);
  EXPECT_EQ(seg_def.param, 3);

  EXPECT_THROW(make_weighting(WeightingKind::kBinary, 1),
               std::invalid_argument);
  EXPECT_THROW(make_weighting(WeightingKind::kBinary, 17),
               std::invalid_argument);
  EXPECT_THROW(make_weighting(WeightingKind::kBinary, 8, 2),
               std::invalid_argument);
  EXPECT_THROW(make_weighting(WeightingKind::kSegmented, 8, 8),
               std::invalid_argument);
}

TEST(Weighting, EncodeExactForAllCodesAllSchemes) {
  const int nbits = 8;
  for (const auto kind :
       {WeightingKind::kBinary, WeightingKind::kUnary,
        WeightingKind::kSegmented, WeightingKind::kOptimized}) {
    const CellArray arr(make_weighting(kind, nbits));
    ASSERT_EQ(arr.full_scale(), 255) << weighting_name(kind);
    std::vector<std::uint8_t> on;
    for (int code = 0; code <= arr.full_scale(); ++code) {
      arr.encode(code, on);
      long sum = 0;
      for (int c = 0; c < arr.cells(); ++c)
        if (on[static_cast<std::size_t>(c)]) sum += arr.weights()[c];
      ASSERT_EQ(sum, code) << weighting_name(kind) << " code " << code;
    }
    EXPECT_THROW(arr.encode(-1, on), std::out_of_range);
    EXPECT_THROW(arr.encode(arr.full_scale() + 1, on), std::out_of_range);
  }
}

TEST(Weighting, TransferMatchesEncodeLoopBitwise) {
  // CellArray::transfer must reproduce, bit for bit, the per-code loop it
  // replaces: encode the code, then add the on cells' terms in cell order
  // from 0.0. Terms mix magnitudes (and signed zeros) so that any other
  // association or order of the adds shows in the low bits.
  mathx::Xoshiro256 rng(2512);
  std::vector<double> head;  // shared across arrays: scratch reuse
  for (const int nbits : {6, 8}) {
    for (const auto& scheme :
         {make_weighting(WeightingKind::kBinary, nbits),
          make_weighting(WeightingKind::kUnary, nbits),
          make_weighting(WeightingKind::kSegmented, nbits),
          make_weighting(WeightingKind::kSegmented, nbits, nbits - 1),
          make_weighting(WeightingKind::kOptimized, nbits)}) {
      const CellArray arr(scheme);
      const auto& w = arr.weights();
      std::vector<double> term(w.size());
      for (std::size_t c = 0; c < w.size(); ++c) {
        const double scale = c % 3 == 0 ? 1e7 : (c % 3 == 1 ? 1.0 : 1e-7);
        term[c] = w[c] + scale * mathx::normal(rng);
      }
      term[w.size() / 2] = -0.0;
      std::vector<double> levels(static_cast<std::size_t>(arr.full_scale()) +
                                 1);
      arr.transfer(term, head, levels);
      std::vector<std::uint8_t> on;
      for (int code = 0; code <= arr.full_scale(); ++code) {
        arr.encode(code, on);
        double want = 0.0;
        for (std::size_t c = 0; c < w.size(); ++c) {
          if (on[c]) want += term[c];
        }
        ASSERT_EQ(std::bit_cast<std::uint64_t>(
                      levels[static_cast<std::size_t>(code)]),
                  std::bit_cast<std::uint64_t>(want))
            << weighting_name(arr.scheme().kind) << " nbits " << nbits
            << " param " << arr.scheme().param << " code " << code;
      }
    }
  }
  const CellArray arr(make_weighting(WeightingKind::kBinary, 4));
  std::vector<double> term(4, 1.0), levels(16);
  std::vector<double> short_levels(15);
  EXPECT_THROW(arr.transfer(term, head, short_levels), std::invalid_argument);
  term.pop_back();
  EXPECT_THROW(arr.transfer(term, head, levels), std::invalid_argument);
}

TEST(Weighting, UnaryBankIsThermometer) {
  // Equal-weight cells must turn on in index order: code k lights cells
  // [0, k) exactly, so a mid-code transition toggles only one cell.
  const CellArray arr(make_weighting(WeightingKind::kUnary, 4));
  for (int code = 0; code <= arr.full_scale(); ++code) {
    const auto on = arr.encode(code);
    for (int c = 0; c < arr.cells(); ++c)
      EXPECT_EQ(on[static_cast<std::size_t>(c)] != 0, c < code)
          << "code " << code << " cell " << c;
  }
}

TEST(Weighting, CompleteAtMinimalBudgetIsForcedBinary) {
  // A complete sequence of exactly n cells summing to 2^n - 1 must be the
  // binary sequence, so the optimizer at cells == nbits cannot move.
  OptimizeOptions opts;
  opts.cells = 6;
  const auto w = optimize_weighting(6, opts);
  EXPECT_EQ(w.weights, (std::vector<int>{32, 16, 8, 4, 2, 1}));
}

TEST(Weighting, OptimizeIsDeterministicAndComplete) {
  OptimizeOptions opts;
  opts.cells = 20;
  const auto a = optimize_weighting(8, opts);
  const auto b = optimize_weighting(8, opts);
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(static_cast<int>(a.weights.size()), 20);
  EXPECT_EQ(weight_sum(a.weights), 255);
  EXPECT_TRUE(is_complete_sequence(a.weights));
  EXPECT_TRUE(std::is_sorted(a.weights.begin(), a.weights.end(),
                             std::greater<int>()));

  EXPECT_THROW(optimize_weighting(8, OptimizeOptions{.cells = 7}),
               std::invalid_argument);
  EXPECT_THROW(optimize_weighting(8, OptimizeOptions{.cells = 256}),
               std::invalid_argument);
}

TEST(Weighting, SwitchingCountsMatchHandCount) {
  const CellArray arr(make_weighting(WeightingKind::kBinary, 3));
  // Codes 3 -> 4 is the full major-carry transition: every cell toggles.
  const auto counts = switching_counts(arr, {3, 4, 3});
  EXPECT_EQ(counts, (std::vector<std::int64_t>{2, 2, 2}));
  // Activity = sum w^2 N = (16 + 4 + 1) * 2.
  EXPECT_DOUBLE_EQ(switching_activity(arr, {3, 4, 3}), 42.0);
}

// Golden trend: at matched budgets the searched weighting concentrates
// toggling on low-weight cells, so the w^2-weighted activity ordering is
// optimized <= segmented < binary over the reference sine.
TEST(WeightingGolden, ActivityOrderingOptimizedSegmentedBinary) {
  const int nbits = 10;
  const auto codes = sine_codes(nbits, 256, 21);

  const CellArray bin(make_weighting(WeightingKind::kBinary, nbits));
  const CellArray seg(make_weighting(WeightingKind::kSegmented, nbits));
  // Optimizer gets exactly the segmented scheme's cell budget.
  OptimizeOptions oo;
  oo.cells = seg.cells();
  const CellArray opt(optimize_weighting(nbits, oo));
  ASSERT_EQ(opt.cells(), seg.cells());

  const double a_bin = switching_activity(bin, codes);
  const double a_seg = switching_activity(seg, codes);
  const double a_opt = switching_activity(opt, codes);
  EXPECT_LT(a_seg, a_bin);
  EXPECT_LE(a_opt, a_seg);
  // The search should beat plain binary by a wide margin, not epsilon.
  EXPECT_LT(a_opt, 0.5 * a_bin);
}

}  // namespace
}  // namespace csdac::arch
