#include "dac/static_analysis.hpp"

#include <cmath>
#include <span>
#include <stdexcept>

#include "dac/lane_kernel.hpp"
#include "obs/metrics.hpp"

namespace csdac::dac {

namespace {

// The chip counter now lives in the process-wide metrics registry (it is
// the same counter a Prometheus dump exports as
// csdac_mc_chips_evaluated_total); mc_chips_evaluated() stays as the
// historical facade. The sharded add costs a few nanoseconds against the
// ~10 us chip evaluation.
obs::Counter& chip_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "mc.chips_evaluated",
      "Monte-Carlo chips drawn and analyzed");
  return c;
}

}  // namespace

std::int64_t mc_chips_evaluated() { return chip_counter().value(); }

namespace detail {

void count_chip_eval() { chip_counter().add(1); }

void count_chip_evals(std::int64_t n) { chip_counter().add(n); }

}  // namespace detail

StaticMetrics analyze_transfer(const std::vector<double>& levels,
                               InlReference ref) {
  const std::size_t n = levels.size();
  if (n < 2) {
    throw std::invalid_argument("analyze_transfer: need >= 2 levels");
  }
  // Reference line: level ~ gain*code + offset.
  double gain = 1.0, offset = 0.0;
  if (ref == InlReference::kEndpoint) {
    gain = (levels.back() - levels.front()) / static_cast<double>(n - 1);
    offset = levels.front();
  } else {
    // Ordinary least squares through (i, levels[i]); the same
    // accumulation order as mathx::fit_line, minus the R^2 pass the INL
    // reference line never needed.
    const auto nn = static_cast<double>(n);
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto x = static_cast<double>(i);
      sx += x;
      sy += levels[i];
      sxx += x * x;
      sxy += x * levels[i];
    }
    const double denom = nn * sxx - sx * sx;
    if (denom == 0.0) throw std::invalid_argument("analyze: degenerate x");
    gain = (nn * sxy - sx * sy) / denom;
    offset = (sy - gain * sx) / nn;
  }
  if (gain == 0.0) throw std::invalid_argument("analyze_transfer: flat");

  StaticMetrics m;
  m.inl.resize(n);
  m.dnl.resize(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    m.inl[i] = (levels[i] - (offset + gain * static_cast<double>(i))) / gain;
    m.inl_max = std::max(m.inl_max, std::abs(m.inl[i]));
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    m.dnl[i] = (levels[i + 1] - levels[i]) / gain - 1.0;
    m.dnl_max = std::max(m.dnl_max, std::abs(m.dnl[i]));
  }
  return m;
}

StaticSummary analyze_levels_summary(std::span<const double> levels,
                                     InlReference ref) {
  const std::size_t n = levels.size();
  if (n < 2) {
    throw std::invalid_argument("analyze_transfer: need >= 2 levels");
  }
  double gain = 1.0, offset = 0.0;
  if (ref == InlReference::kEndpoint) {
    gain = (levels.back() - levels.front()) / static_cast<double>(n - 1);
    offset = levels.front();
  } else {
    // Same least-squares line as analyze_transfer, but with the x
    // statistics in closed form: for a 0..n-1 ramp every partial sum of x
    // and x^2 is an exact integer below 2^53 (n <= 2^17), so the iterative
    // sums in analyze_transfer land on the exact value the closed forms
    // give.
    const auto nn = static_cast<double>(n);
    double sx, sxx;
    if (n <= (std::size_t{1} << 17)) {
      const auto m = static_cast<std::int64_t>(n) - 1;
      sx = static_cast<double>(m * (m + 1) / 2);
      sxx = static_cast<double>(m * (m + 1) * (2 * m + 1) / 6);
    } else {
      sx = 0.0;
      sxx = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const auto x = static_cast<double>(i);
        sx += x;
        sxx += x * x;
      }
    }
    double sy = 0, sxy = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sy += levels[i];
      sxy += static_cast<double>(i) * levels[i];
    }
    const double denom = nn * sxx - sx * sx;
    if (denom == 0.0) throw std::invalid_argument("analyze: degenerate x");
    gain = (nn * sxy - sx * sy) / denom;
    offset = (sy - gain * sx) / nn;
  }
  if (gain == 0.0) throw std::invalid_argument("analyze_transfer: flat");

  // One fused pass: track the extreme residual and the extreme level
  // steps; divide once at the end. Monotonicity of correctly-rounded
  // division makes the maxima bit-identical to analyze_transfer's per-code
  // divided values.
  double rmax = 0.0;
  double dmin = levels[1] - levels[0];
  double dmax = dmin;
  {
    const double resid0 = levels[0] - offset;
    rmax = std::abs(resid0);
  }
  for (std::size_t i = 1; i < n; ++i) {
    const double resid =
        levels[i] - (offset + gain * static_cast<double>(i));
    rmax = std::max(rmax, std::abs(resid));
    const double d = levels[i] - levels[i - 1];
    dmin = std::min(dmin, d);
    dmax = std::max(dmax, d);
  }
  StaticSummary s;
  s.inl_max = rmax / std::abs(gain);
  const double dnl_lo = dmin / gain - 1.0;
  const double dnl_hi = dmax / gain - 1.0;
  s.dnl_max = std::max(std::abs(dnl_lo), std::abs(dnl_hi));
  return s;
}

namespace {

// Fixed-count and adaptive INL/DNL yield: chip-per-lane blocks on the
// lane-block driver. A fixed-count run is the run with one wave of
// `chips` and no early stop.
YieldEstimate run_mc(const core::DacSpec& spec, double sigma_unit,
                     const mathx::EarlyStopOptions& es, int threads,
                     std::uint64_t seed, double limit,
                     bool use_inl, InlReference ref) {
  if (threads < 0) throw std::invalid_argument("yield_mc: threads < 0");
  const mathx::YieldRun r = detail::run_lane_blocks(
      spec, es, threads, /*unit=*/1,
      [&](const LaneKernel& k, ChipWorkspaceXN& ws, std::int64_t lo) {
        bool pass[kMaxSimdLanes];
        k.mc_block(ws, sigma_unit, seed, lo, ref,
                   use_inl ? ChipMetric::kInl : ChipMetric::kDnl, limit, pass);
        std::int64_t passed = 0;
        for (int l = 0; l < k.lanes; ++l) passed += pass[l] ? 1 : 0;
        return passed;
      });
  YieldEstimate y;
  y.chips = static_cast<int>(r.evaluated);
  y.pass = static_cast<int>(r.passed);
  y.yield = r.yield;
  y.ci95 = r.ci95;
  y.stats = r.stats;
  return y;
}

YieldEstimate run_mc_fixed(const core::DacSpec& spec, double sigma_unit,
                           int chips, std::uint64_t seed, double limit,
                           bool use_inl, InlReference ref, int threads) {
  if (chips <= 0) throw std::invalid_argument("yield_mc: chips <= 0");
  return run_mc(spec, sigma_unit, {.max_items = chips, .batch = chips},
                threads, seed, limit, use_inl, ref);
}

YieldEstimate run_mc_adaptive(const core::DacSpec& spec, double sigma_unit,
                              const AdaptiveMcOptions& opts,
                              std::uint64_t seed, double limit, bool use_inl,
                              InlReference ref) {
  return run_mc(spec, sigma_unit,
                {.max_items = opts.max_chips,
                 .min_items = opts.min_chips,
                 .batch = opts.batch,
                 .ci_half_width = opts.ci_half_width},
                opts.threads, seed, limit, use_inl, ref);
}

}  // namespace

YieldEstimate inl_yield_mc(const core::DacSpec& spec, double sigma_unit,
                           int chips, std::uint64_t seed, double inl_limit,
                           InlReference ref, int threads) {
  return run_mc_fixed(spec, sigma_unit, chips, seed, inl_limit, true, ref,
                      threads);
}

YieldEstimate dnl_yield_mc(const core::DacSpec& spec, double sigma_unit,
                           int chips, std::uint64_t seed, double dnl_limit,
                           int threads) {
  return run_mc_fixed(spec, sigma_unit, chips, seed, dnl_limit, false,
                      InlReference::kBestFit, threads);
}

YieldEstimate inl_yield_mc_adaptive(const core::DacSpec& spec,
                                    double sigma_unit,
                                    const AdaptiveMcOptions& opts,
                                    std::uint64_t seed, double inl_limit,
                                    InlReference ref) {
  return run_mc_adaptive(spec, sigma_unit, opts, seed, inl_limit, true, ref);
}

YieldEstimate dnl_yield_mc_adaptive(const core::DacSpec& spec,
                                    double sigma_unit,
                                    const AdaptiveMcOptions& opts,
                                    std::uint64_t seed, double dnl_limit) {
  return run_mc_adaptive(spec, sigma_unit, opts, seed, dnl_limit, false,
                         InlReference::kBestFit);
}

}  // namespace csdac::dac
