#include "dac/static_analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "chip_oracle.hpp"
#include "core/accuracy.hpp"
#include "mathx/rng.hpp"

namespace csdac::dac {
namespace {

TEST(StaticAnalysis, PerfectTransferHasZeroInlDnl) {
  std::vector<double> levels(256);
  for (std::size_t i = 0; i < levels.size(); ++i) levels[i] = 2.0 * i + 5.0;
  for (auto ref : {InlReference::kEndpoint, InlReference::kBestFit}) {
    const auto m = analyze_transfer(levels, ref);
    EXPECT_NEAR(m.inl_max, 0.0, 1e-10);
    EXPECT_NEAR(m.dnl_max, 0.0, 1e-10);
  }
}

TEST(StaticAnalysis, SingleBumpShowsInDnl) {
  std::vector<double> levels(64);
  for (std::size_t i = 0; i < levels.size(); ++i) levels[i] = i;
  levels[30] += 0.4;  // code 30 is 0.4 LSB high
  const auto m = analyze_transfer(levels, InlReference::kEndpoint);
  // Transition 29->30 gains 0.4, transition 30->31 loses 0.4.
  EXPECT_NEAR(m.dnl[29], 0.4, 1e-9);
  EXPECT_NEAR(m.dnl[30], -0.4, 1e-9);
  EXPECT_NEAR(m.inl_max, 0.4, 0.02);
}

TEST(StaticAnalysis, EndpointInlZeroAtEnds) {
  std::vector<double> levels = {0.0, 1.3, 1.9, 3.1, 4.0};
  const auto m = analyze_transfer(levels, InlReference::kEndpoint);
  EXPECT_NEAR(m.inl.front(), 0.0, 1e-12);
  EXPECT_NEAR(m.inl.back(), 0.0, 1e-12);
}

TEST(StaticAnalysis, BestFitInlSmallerOrEqual) {
  // The LS line minimizes the RMS residual; its max |INL| is typically
  // smaller than the endpoint version for a bowed transfer.
  std::vector<double> levels(128);
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const double x = static_cast<double>(i);
    levels[i] = x + 1e-4 * x * (127.0 - x);  // bow
  }
  const auto ep = analyze_transfer(levels, InlReference::kEndpoint);
  const auto bf = analyze_transfer(levels, InlReference::kBestFit);
  EXPECT_LT(bf.inl_max, ep.inl_max);
}

TEST(StaticAnalysis, RejectsDegenerateInput) {
  EXPECT_THROW(analyze_transfer({1.0}), std::invalid_argument);
  EXPECT_THROW(analyze_transfer({2.0, 2.0, 2.0}), std::invalid_argument);
}

TEST(StaticAnalysis, YieldMeetsEq1Target) {
  // eq. (1) validation: sizing the unit sigma for a target INL yield must
  // produce AT LEAST that yield in Monte Carlo -- the rule is known to be
  // conservative (it bounds the mid-scale accumulation; the best-fit INL
  // of a real transfer is smaller). Run at 8 bits for speed.
  core::DacSpec spec;
  spec.nbits = 8;
  spec.binary_bits = 3;
  const double target_yield = 0.95;
  const double sigma = core::unit_sigma_spec(spec.nbits, target_yield);
  const auto y = inl_yield_mc(spec, sigma, 1500, /*seed=*/42, 0.5,
                              InlReference::kBestFit);
  EXPECT_GE(y.yield, target_yield - 0.02);
  // ... and the design rule is not wildly loose: tripling sigma must break
  // the yield decisively.
  const auto broken = inl_yield_mc(spec, 3.0 * sigma, 400, 42, 0.5,
                                   InlReference::kBestFit);
  EXPECT_LT(broken.yield, 0.80);
}

TEST(StaticAnalysis, YieldDropsWithLargerSigma) {
  core::DacSpec spec;
  spec.nbits = 8;
  spec.binary_bits = 3;
  const double sigma = core::unit_sigma_spec(spec.nbits, 0.95);
  const auto tight = inl_yield_mc(spec, sigma, 400, 1);
  const auto loose = inl_yield_mc(spec, 4.0 * sigma, 400, 1);
  EXPECT_GT(tight.yield, loose.yield);
  EXPECT_LT(loose.yield, 0.6);
}

TEST(StaticAnalysis, DnlYieldHigherThanInlYield) {
  // Paper Section 1: with the INL-driven sigma, DNL < 0.5 LSB is
  // essentially always satisfied for the b = 3 segmentation.
  core::DacSpec spec;
  spec.nbits = 8;
  spec.binary_bits = 3;
  const double sigma = core::unit_sigma_spec(spec.nbits, 0.95);
  const auto inl = inl_yield_mc(spec, sigma, 500, 3);
  const auto dnl = dnl_yield_mc(spec, sigma, 500, 3);
  EXPECT_GE(dnl.yield, inl.yield);
  EXPECT_GT(dnl.yield, 0.99);
}

TEST(StaticAnalysis, ParallelMcBitIdenticalToSerial) {
  // Per-chip RNG streams make the result independent of the thread count.
  core::DacSpec spec;
  spec.nbits = 8;
  spec.binary_bits = 3;
  const double sigma = core::unit_sigma_spec(spec.nbits, 0.9);
  const auto serial = inl_yield_mc(spec, 2.0 * sigma, 200, 11, 0.5,
                                   InlReference::kBestFit, /*threads=*/1);
  const auto par4 = inl_yield_mc(spec, 2.0 * sigma, 200, 11, 0.5,
                                 InlReference::kBestFit, /*threads=*/4);
  const auto par_auto = inl_yield_mc(spec, 2.0 * sigma, 200, 11, 0.5,
                                     InlReference::kBestFit, /*threads=*/0);
  EXPECT_EQ(serial.pass, par4.pass);
  EXPECT_EQ(serial.pass, par_auto.pass);
  EXPECT_THROW(inl_yield_mc(spec, sigma, 10, 1, 0.5,
                            InlReference::kBestFit, -1),
               std::invalid_argument);
}

TEST(StaticAnalysis, YieldMcBitIdenticalForThreads127AndReruns) {
  // The determinism contract of the shared engine: per-chip RNG streams
  // make the estimate a pure function of (seed, chips), independent of the
  // thread count and stable across repeated runs.
  core::DacSpec spec;
  spec.nbits = 8;
  spec.binary_bits = 3;
  const double sigma = 2.0 * core::unit_sigma_spec(spec.nbits, 0.9);
  const auto ref_inl = inl_yield_mc(spec, sigma, 300, 17, 0.5,
                                    InlReference::kBestFit, 1);
  const auto ref_dnl = dnl_yield_mc(spec, sigma, 300, 17, 0.5, 1);
  for (int threads : {1, 2, 7}) {
    for (int rerun = 0; rerun < 2; ++rerun) {
      const auto inl = inl_yield_mc(spec, sigma, 300, 17, 0.5,
                                    InlReference::kBestFit, threads);
      const auto dnl = dnl_yield_mc(spec, sigma, 300, 17, 0.5, threads);
      EXPECT_EQ(inl.pass, ref_inl.pass)
          << "threads " << threads << " rerun " << rerun;
      EXPECT_DOUBLE_EQ(inl.yield, ref_inl.yield);
      EXPECT_EQ(dnl.pass, ref_dnl.pass)
          << "threads " << threads << " rerun " << rerun;
      EXPECT_DOUBLE_EQ(dnl.yield, ref_dnl.yield);
    }
  }
}

TEST(StaticAnalysis, AdaptiveYieldAgreesWithFixedCountWithinCi) {
  // Early-stop correctness: on a seeded spec the adaptive estimate must
  // agree with the fixed-chip-count estimate within the combined CI, while
  // evaluating fewer chips than the cap on this high-yield spec.
  core::DacSpec spec;
  spec.nbits = 8;
  spec.binary_bits = 3;
  const double sigma = core::unit_sigma_spec(spec.nbits, 0.95);
  AdaptiveMcOptions opts;
  opts.max_chips = 4000;
  opts.ci_half_width = 0.02;
  opts.threads = 2;
  const auto adaptive = inl_yield_mc_adaptive(spec, sigma, opts, 42);
  const auto fixed = inl_yield_mc(spec, sigma, 4000, 42);
  EXPECT_TRUE(adaptive.stats.early_stopped);
  EXPECT_LT(adaptive.chips, opts.max_chips);
  EXPECT_EQ(adaptive.stats.skipped, opts.max_chips - adaptive.chips);
  EXPECT_NEAR(adaptive.yield, fixed.yield, adaptive.ci95 + fixed.ci95);
}

TEST(StaticAnalysis, AdaptiveYieldNeverExceedsCapAndIsDeterministic) {
  core::DacSpec spec;
  spec.nbits = 8;
  spec.binary_bits = 3;
  const double sigma = 2.0 * core::unit_sigma_spec(spec.nbits, 0.9);
  AdaptiveMcOptions opts;
  opts.max_chips = 300;
  opts.min_chips = 64;
  opts.batch = 64;
  opts.ci_half_width = 1e-9;  // unreachable: must stop exactly at the cap
  opts.threads = 7;
  const auto y = inl_yield_mc_adaptive(spec, sigma, opts, 17);
  EXPECT_EQ(y.chips, 300);
  EXPECT_FALSE(y.stats.early_stopped);
  // ... and the capped adaptive run sees exactly the same chips as the
  // fixed-count estimator (same streams, same batches).
  const auto fixed = inl_yield_mc(spec, sigma, 300, 17);
  EXPECT_EQ(y.pass, fixed.pass);
  opts.threads = 1;
  const auto serial = inl_yield_mc_adaptive(spec, sigma, opts, 17);
  EXPECT_EQ(serial.pass, y.pass);
  EXPECT_EQ(serial.chips, y.chips);
}

TEST(StaticAnalysis, RunStatsAreFilled) {
  core::DacSpec spec;
  spec.nbits = 6;
  spec.binary_bits = 2;
  const auto y = inl_yield_mc(spec, 0.001, 64, 9, 0.5,
                              InlReference::kBestFit, 2);
  EXPECT_EQ(y.stats.evaluated, 64);
  EXPECT_EQ(y.stats.skipped, 0);
  EXPECT_GE(y.stats.threads, 1);
  EXPECT_GT(y.stats.items_per_second, 0.0);
}

TEST(StaticAnalysis, YieldEstimateBookkeeping) {
  core::DacSpec spec;
  spec.nbits = 6;
  spec.binary_bits = 2;
  const auto y = inl_yield_mc(spec, 1e-6, 50, 7);
  EXPECT_EQ(y.chips, 50);
  EXPECT_EQ(y.pass, 50);  // essentially no mismatch: all pass
  EXPECT_DOUBLE_EQ(y.yield, 1.0);
  EXPECT_THROW(inl_yield_mc(spec, 0.001, 0, 7), std::invalid_argument);
}

// ---- Property-based analyzer tests -------------------------------------

TEST(StaticAnalysisProperty, RandomLinearRampsHaveZeroInlDnl) {
  // Any exactly linear transfer level = a*code + b must analyze to ~0
  // INL and DNL for BOTH reference lines, for random gains, offsets, and
  // lengths. This is the defining property of the metrics.
  mathx::Xoshiro256 rng(321);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng() % 1000);
    const double a = 0.25 + 4.0 * mathx::uniform01(rng);   // gain in [0.25, 4.25)
    const double b = 20.0 * (mathx::uniform01(rng) - 0.5); // offset in [-10, 10)
    std::vector<double> levels(n);
    for (std::size_t i = 0; i < n; ++i) {
      levels[i] = a * static_cast<double>(i) + b;
    }
    for (auto ref : {InlReference::kEndpoint, InlReference::kBestFit}) {
      const auto m = analyze_transfer(levels, ref);
      EXPECT_LT(m.inl_max, 1e-9) << "trial " << trial << " n " << n;
      EXPECT_LT(m.dnl_max, 1e-9) << "trial " << trial << " n " << n;
      const auto s = analyze_levels_summary(levels, ref);
      EXPECT_EQ(s.inl_max, m.inl_max) << "trial " << trial;
      EXPECT_EQ(s.dnl_max, m.dnl_max) << "trial " << trial;
    }
  }
}

TEST(StaticAnalysisProperty, BestFitInlInvariantToOffsetAndGain) {
  // INL is measured in LSB of the fitted line, so rescaling the transfer
  // (gain) or shifting it (offset) must leave the best-fit INL unchanged.
  mathx::Xoshiro256 rng(654);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 64;
    std::vector<double> levels(n);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      // Random monotone transfer: positive random steps around 1 LSB.
      acc += 0.5 + mathx::uniform01(rng);
      levels[i] = acc;
    }
    const auto base = analyze_transfer(levels, InlReference::kBestFit);
    const double gain = 0.1 + 5.0 * mathx::uniform01(rng);
    const double offset = 100.0 * (mathx::uniform01(rng) - 0.5);
    std::vector<double> scaled(n);
    for (std::size_t i = 0; i < n; ++i) {
      scaled[i] = gain * levels[i] + offset;
    }
    const auto m = analyze_transfer(scaled, InlReference::kBestFit);
    EXPECT_NEAR(m.inl_max, base.inl_max, 1e-9) << "trial " << trial;
    EXPECT_NEAR(m.dnl_max, base.dnl_max, 1e-9) << "trial " << trial;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(m.inl[i], base.inl[i], 1e-9)
          << "trial " << trial << " code " << i;
    }
  }
}

TEST(StaticAnalysisProperty, SummaryMatchesFullAnalysisOnRandomTransfers) {
  // The maxima-only kernel must agree bitwise with the vector-writing
  // analysis on arbitrary (even non-monotone) transfers.
  mathx::Xoshiro256 rng(987);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng() % 500);
    std::vector<double> levels(n);
    for (std::size_t i = 0; i < n; ++i) {
      levels[i] = static_cast<double>(i) + 2.0 * (mathx::uniform01(rng) - 0.5);
    }
    for (auto ref : {InlReference::kEndpoint, InlReference::kBestFit}) {
      const auto m = analyze_transfer(levels, ref);
      const auto s = analyze_levels_summary(levels, ref);
      EXPECT_EQ(s.inl_max, m.inl_max) << "trial " << trial << " n " << n;
      EXPECT_EQ(s.dnl_max, m.dnl_max) << "trial " << trial << " n " << n;
    }
  }
}

TEST(StaticAnalysisProperty, SummaryDegenerateEdges) {
  // Two levels is the minimum legal transfer: both reference lines pass
  // through both points, so INL and DNL are exactly zero.
  const std::vector<double> two = {1.5, 3.0};
  for (auto ref : {InlReference::kEndpoint, InlReference::kBestFit}) {
    const auto s = analyze_levels_summary(two, ref);
    EXPECT_EQ(s.inl_max, 0.0);
    EXPECT_EQ(s.dnl_max, 0.0);
  }
  // Fewer than two levels cannot define a line.
  EXPECT_THROW(analyze_levels_summary(std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(analyze_levels_summary(std::vector<double>{}),
               std::invalid_argument);
  // All-equal levels give a zero-gain line; INL in LSB would divide by
  // zero, so both the summary and the full analysis must refuse.
  const std::vector<double> flat = {2.0, 2.0, 2.0, 2.0};
  for (auto ref : {InlReference::kEndpoint, InlReference::kBestFit}) {
    EXPECT_THROW(analyze_levels_summary(flat, ref), std::invalid_argument);
    EXPECT_THROW(analyze_transfer(flat, ref), std::invalid_argument);
  }
}

TEST(StaticAnalysisProperty, SummaryMatchesAcrossClosedFormBoundary) {
  // The best-fit sx/sxx sums switch from closed form to iterative
  // accumulation above n = 2^17 (where the closed form could round). The
  // bitwise agreement with analyze_transfer must hold on both sides.
  mathx::Xoshiro256 rng(555);
  for (std::size_t n : {(std::size_t{1} << 17), (std::size_t{1} << 17) + 3}) {
    std::vector<double> levels(n);
    for (std::size_t i = 0; i < n; ++i) {
      levels[i] = static_cast<double>(i) + (mathx::uniform01(rng) - 0.5);
    }
    const auto m = analyze_transfer(levels, InlReference::kBestFit);
    const auto s = analyze_levels_summary(levels, InlReference::kBestFit);
    EXPECT_EQ(s.inl_max, m.inl_max) << "n " << n;
    EXPECT_EQ(s.dnl_max, m.dnl_max) << "n " << n;
  }
}

// ---- Wilson confidence interval edge cases -----------------------------

TEST(StaticAnalysis, Ci95IsWilsonAtYieldOne) {
  // The old naive binomial half-width collapsed to exactly 0 at yield 1,
  // claiming infinite confidence from finite chips. Wilson stays positive.
  core::DacSpec spec;
  spec.nbits = 6;
  spec.binary_bits = 2;
  const auto y = inl_yield_mc(spec, 1e-9, 80, 5);
  ASSERT_DOUBLE_EQ(y.yield, 1.0);
  EXPECT_GT(y.ci95, 0.0);
  EXPECT_DOUBLE_EQ(y.ci95, mathx::wilson_half_width(80, 80));
}

TEST(StaticAnalysis, Ci95IsWilsonAtYieldZero) {
  core::DacSpec spec;
  spec.nbits = 8;
  spec.binary_bits = 3;
  // Enormous mismatch: every chip fails.
  const auto y = inl_yield_mc(spec, 0.5, 60, 5);
  ASSERT_DOUBLE_EQ(y.yield, 0.0);
  EXPECT_GT(y.ci95, 0.0);
  EXPECT_DOUBLE_EQ(y.ci95, mathx::wilson_half_width(0, 60));
  // Symmetry of the Wilson interval around p <-> 1-p.
  EXPECT_DOUBLE_EQ(mathx::wilson_half_width(0, 60),
                   mathx::wilson_half_width(60, 60));
}

// ---- Lane-kernel estimators vs the serial reference chain --------------

TEST(StaticAnalysis, WorkspaceYieldBitIdenticalToLegacyAcrossThreads) {
  // The allocation-free lane-kernel estimators and the serial allocating
  // reference chain (chip_oracle.hpp) must produce the same pass count,
  // yield, and CI for every thread count.
  core::DacSpec spec;
  spec.nbits = 8;
  spec.binary_bits = 3;
  const double sigma = 2.0 * core::unit_sigma_spec(spec.nbits, 0.9);
  for (int threads : {1, 2, 7}) {
    const auto ws = inl_yield_mc(spec, sigma, 250, 23, 0.5,
                                 InlReference::kBestFit, threads);
    const auto legacy = oracle::inl_yield_mc_legacy(
        spec, sigma, 250, 23, 0.5, InlReference::kBestFit);
    EXPECT_EQ(ws.pass, legacy.pass) << "threads " << threads;
    EXPECT_DOUBLE_EQ(ws.yield, legacy.yield) << "threads " << threads;
    EXPECT_DOUBLE_EQ(ws.ci95, legacy.ci95) << "threads " << threads;

    const auto ws_dnl = dnl_yield_mc(spec, sigma, 250, 23, 0.5, threads);
    const auto legacy_dnl =
        oracle::dnl_yield_mc_legacy(spec, sigma, 250, 23, 0.5);
    EXPECT_EQ(ws_dnl.pass, legacy_dnl.pass) << "threads " << threads;
  }
}

TEST(StaticAnalysis, WorkspaceYieldMatchesEndpointReferenceToo) {
  core::DacSpec spec;
  spec.nbits = 8;
  spec.binary_bits = 3;
  const double sigma = 2.0 * core::unit_sigma_spec(spec.nbits, 0.9);
  const auto ws = inl_yield_mc(spec, sigma, 200, 29, 0.5,
                               InlReference::kEndpoint, 2);
  const auto legacy = oracle::inl_yield_mc_legacy(spec, sigma, 200, 29, 0.5,
                                                  InlReference::kEndpoint);
  EXPECT_EQ(ws.pass, legacy.pass);
}

}  // namespace
}  // namespace csdac::dac
