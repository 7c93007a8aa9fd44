#include "dac/static_analysis.hpp"

#include <atomic>
#include <cmath>
#include <span>
#include <stdexcept>

#include "dac/lane_kernel.hpp"
#include "mathx/fit.hpp"
#include "mathx/rng.hpp"
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
      "Monte-Carlo chips drawn and analyzed (workspace or legacy path)");
  return c;
}

}  // namespace

std::int64_t mc_chips_evaluated() { return chip_counter().value(); }

namespace detail {

void count_chip_eval() { chip_counter().add(1); }

void count_chip_evals(std::int64_t n) { chip_counter().add(n); }

}  // namespace detail

namespace {

// The one INL/DNL computation. Both the allocating analyze_transfer and the
// workspace analyze_transfer_into funnel through this, so the two paths are
// bit-identical by construction. `codes` must be the ramp 0..n-1 (only read
// for the best-fit reference); `inl` must have n slots and `dnl` n-1.
StaticSummary analyze_core(std::span<const double> levels,
                           std::span<const double> codes, InlReference ref,
                           double* inl, double* dnl) {
  const std::size_t n = levels.size();
  // Reference line: level ~ gain*code + offset.
  double gain = 1.0, offset = 0.0;
  if (ref == InlReference::kEndpoint) {
    gain = (levels.back() - levels.front()) / static_cast<double>(n - 1);
    offset = levels.front();
  } else {
    // Ordinary least squares through (codes[i], levels[i]); the same
    // accumulation order as mathx::fit_line, minus the R^2 pass the INL
    // reference line never needed.
    const auto nn = static_cast<double>(n);
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sx += codes[i];
      sy += levels[i];
      sxx += codes[i] * codes[i];
      sxy += codes[i] * levels[i];
    }
    const double denom = nn * sxx - sx * sx;
    if (denom == 0.0) throw std::invalid_argument("analyze: degenerate x");
    gain = (nn * sxy - sx * sy) / denom;
    offset = (sy - gain * sx) / nn;
  }
  if (gain == 0.0) throw std::invalid_argument("analyze_transfer: flat");

  StaticSummary s;
  for (std::size_t i = 0; i < n; ++i) {
    inl[i] = (levels[i] - (offset + gain * static_cast<double>(i))) / gain;
    s.inl_max = std::max(s.inl_max, std::abs(inl[i]));
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    dnl[i] = (levels[i + 1] - levels[i]) / gain - 1.0;
    s.dnl_max = std::max(s.dnl_max, std::abs(dnl[i]));
  }
  return s;
}

}  // namespace

StaticMetrics analyze_transfer(const std::vector<double>& levels,
                               InlReference ref) {
  if (levels.size() < 2) {
    throw std::invalid_argument("analyze_transfer: need >= 2 levels");
  }
  const std::size_t n = levels.size();
  StaticMetrics m;
  m.inl.resize(n);
  m.dnl.resize(n - 1);
  std::vector<double> codes;
  if (ref == InlReference::kBestFit) {
    codes.resize(n);
    for (std::size_t i = 0; i < n; ++i) codes[i] = static_cast<double>(i);
  }
  const StaticSummary s =
      analyze_core(levels, codes, ref, m.inl.data(), m.dnl.data());
  m.inl_max = s.inl_max;
  m.dnl_max = s.dnl_max;
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
    // Same least-squares line as analyze_core, but with the x statistics
    // in closed form: for a 0..n-1 ramp every partial sum of x and x^2 is
    // an exact integer below 2^53 (n <= 2^17), so the iterative sums in
    // analyze_core land on the exact value the closed forms give.
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
  // division makes the maxima bit-identical to analyze_core's per-code
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

StaticSummary analyze_transfer_into(ChipWorkspace& ws, InlReference ref) {
  if (ws.levels.size() < 2 || ws.inl.size() != ws.levels.size() ||
      ws.dnl.size() + 1 != ws.levels.size() ||
      ws.codes.size() != ws.levels.size()) {
    throw std::invalid_argument("analyze_transfer_into: bad workspace");
  }
  return analyze_core(ws.levels, ws.codes, ref, ws.inl.data(),
                      ws.dnl.data());
}

StaticSummary mc_chip_metrics(ChipWorkspace& ws, double sigma_unit,
                              std::uint64_t seed, std::int64_t chip,
                              InlReference ref) {
  detail::count_chip_eval();
  mathx::stream_rng_into(ws.rng, seed, static_cast<std::uint64_t>(chip));
  draw_source_errors_into(ws.spec, sigma_unit, ws.rng, ws.errors);
  transfer_into(ws.spec, ws.errors, ws);
  return analyze_levels_summary(ws.levels, ref);
}

namespace {

// The historical per-chip analysis, preserved verbatim as the baseline the
// bench harness measures against: allocates the codes ramp and INL/DNL
// vectors every chip and pays mathx::fit_line's extra syy/R^2 passes. Its
// slope/intercept accumulate in the same order as analyze_core, so the
// pass/fail decisions are bit-identical to the workspace path (the
// equivalence tests pin this).
StaticMetrics analyze_transfer_seed(const std::vector<double>& levels,
                                    InlReference ref) {
  const std::size_t n = levels.size();
  StaticMetrics m;
  m.inl.resize(n);
  m.dnl.resize(n - 1);
  double gain = 1.0, offset = 0.0;
  if (ref == InlReference::kEndpoint) {
    gain = (levels.back() - levels.front()) / static_cast<double>(n - 1);
    offset = levels.front();
  } else {
    std::vector<double> codes(n);
    for (std::size_t i = 0; i < n; ++i) codes[i] = static_cast<double>(i);
    const auto fit = mathx::fit_line(codes, levels);
    gain = fit.slope;
    offset = fit.intercept;
  }
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

bool chip_passes_legacy(const core::DacSpec& spec, double sigma_unit,
                        std::uint64_t seed, std::int64_t chip, double limit,
                        bool use_inl, InlReference ref) {
  detail::count_chip_eval();
  mathx::Xoshiro256 rng =
      mathx::stream_rng(seed, static_cast<std::uint64_t>(chip));
  const SegmentedDac dac(spec, draw_source_errors(spec, sigma_unit, rng));
  const StaticMetrics m = analyze_transfer_seed(dac.transfer(), ref);
  return (use_inl ? m.inl_max : m.dnl_max) < limit;
}

YieldEstimate run_mc_legacy(const core::DacSpec& spec, double sigma_unit,
                            int chips, std::uint64_t seed, double limit,
                            bool use_inl, InlReference ref, int threads) {
  if (chips <= 0) throw std::invalid_argument("yield_mc: chips <= 0");
  if (threads < 0) throw std::invalid_argument("yield_mc: threads < 0");
  std::atomic<int> passed{0};
  YieldEstimate y;
  y.chips = chips;
  y.stats = mathx::parallel_for_indexed(chips, threads, [&](int,
                                                            std::int64_t c) {
    if (chip_passes_legacy(spec, sigma_unit, seed, c, limit, use_inl, ref)) {
      passed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  y.pass = passed.load();
  y.yield = static_cast<double>(y.pass) / chips;
  y.ci95 = mathx::wilson_half_width(y.pass, chips);
  return y;
}

// Fixed-count and adaptive INL/DNL yield: chip-per-lane blocks on the
// lane-block driver. A fixed-count run is the run with one wave of
// `chips` and no early stop.
YieldEstimate run_mc(const core::DacSpec& spec, double sigma_unit,
                     const mathx::EarlyStopOptions& es, int threads,
                     bool count_allocs, std::uint64_t seed, double limit,
                     bool use_inl, InlReference ref) {
  if (threads < 0) throw std::invalid_argument("yield_mc: threads < 0");
  const mathx::YieldRun r = detail::run_lane_blocks(
      spec, es, threads, /*unit=*/1,
      [&](const LaneKernel& k, ChipWorkspaceXN& ws, std::int64_t lo) {
        StaticSummary s[kMaxSimdLanes];
        k.mc_block(ws, sigma_unit, seed, lo, ref, s);
        std::int64_t passed = 0;
        for (int l = 0; l < k.lanes; ++l) {
          if ((use_inl ? s[l].inl_max : s[l].dnl_max) < limit) ++passed;
        }
        return passed;
      },
      count_allocs);
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
                threads, /*count_allocs=*/false, seed, limit, use_inl, ref);
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
                opts.threads, opts.count_allocs, seed, limit, use_inl, ref);
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

YieldEstimate inl_yield_mc_legacy(const core::DacSpec& spec,
                                  double sigma_unit, int chips,
                                  std::uint64_t seed, double inl_limit,
                                  InlReference ref, int threads) {
  return run_mc_legacy(spec, sigma_unit, chips, seed, inl_limit, true, ref,
                       threads);
}

YieldEstimate dnl_yield_mc_legacy(const core::DacSpec& spec,
                                  double sigma_unit, int chips,
                                  std::uint64_t seed, double dnl_limit,
                                  int threads) {
  return run_mc_legacy(spec, sigma_unit, chips, seed, dnl_limit, false,
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
