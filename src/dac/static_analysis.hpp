// Static linearity metrics (INL, DNL) and parametric-yield Monte Carlo —
// the machinery behind eq. (1)'s design rule. The MC loops run on the
// shared mathx::parallel engine: per-chip RNG streams derived from
// (seed, chip) make results bit-identical for any thread count, and the
// adaptive variants stop drawing chips once the 95 % CI has resolved.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/spec.hpp"
#include "dac/dac_model.hpp"
#include "mathx/parallel.hpp"

namespace csdac::dac {

/// Reference line for INL.
enum class InlReference {
  kEndpoint,  ///< line through the first and last level
  kBestFit    ///< least-squares line (what testers usually report)
};

struct StaticMetrics {
  std::vector<double> inl;  ///< per-code INL [LSB]
  std::vector<double> dnl;  ///< per-transition DNL [LSB], size 2^n - 1
  double inl_max = 0.0;     ///< max |INL| [LSB]
  double dnl_max = 0.0;     ///< max |DNL| [LSB]
};

/// Computes INL/DNL of a static transfer function (levels in LSB units).
StaticMetrics analyze_transfer(const std::vector<double>& levels,
                               InlReference ref = InlReference::kBestFit);

/// Maxima of an INL/DNL analysis, without the per-code vectors.
struct StaticSummary {
  double inl_max = 0.0;  ///< max |INL| [LSB]
  double dnl_max = 0.0;  ///< max |DNL| [LSB]
};

/// Maxima-only analysis of a raw levels span — the MC hot-path kernel. No
/// per-code vectors are written and no per-code division is paid, yet the
/// returned maxima are bit-identical to analyze_transfer's: IEEE division
/// is correctly rounded and therefore monotone, so max|x_i / g| equals
/// max|x_i| / |g|, and the extreme DNL is attained at the extreme level
/// step. The equivalence tests pin this against analyze_transfer.
StaticSummary analyze_levels_summary(std::span<const double> levels,
                                     InlReference ref = InlReference::kBestFit);

/// Process-wide count of Monte-Carlo chip evaluations (every mismatch-drawn
/// chip analyzed by any yield/calibration path). A relaxed atomic
/// increment per chip — negligible against the ~10 us chip cost — that
/// gives the runtime cache a hard "no work was redone" signal: a warm-cache
/// service run must leave this counter unchanged.
std::int64_t mc_chips_evaluated();

/// Difference-friendly reset is deliberately absent (other threads may be
/// counting); snapshot before/after and subtract instead.

namespace detail {
/// Bumps the chip counter; called once per chip by every MC kernel.
void count_chip_eval();
/// Batched bump for the chip-per-lane kernels (one call per block).
void count_chip_evals(std::int64_t n);
}  // namespace detail

/// Monte-Carlo INL yield: fraction of chips with max|INL| < inl_limit.
struct YieldEstimate {
  int chips = 0;  ///< chips actually evaluated
  int pass = 0;
  double yield = 0.0;
  double ci95 = 0.0;  ///< Wilson 95 % confidence half-width
  mathx::RunStats stats;  ///< engine observability (wall time, chips/s, ...)
};

/// Each chip draws from an independent RNG stream derived from
/// (seed, chip index), so results are bit-identical for any thread count.
/// threads = 0 uses the hardware concurrency. Runs the allocation-free
/// chip-per-lane kernels (see dac/lane_kernel.hpp); results are
/// bit-identical, chip by chip, to the allocating draw_source_errors →
/// SegmentedDac::transfer → analyze_transfer chain on the same streams.
YieldEstimate inl_yield_mc(const core::DacSpec& spec, double sigma_unit,
                           int chips, std::uint64_t seed,
                           double inl_limit = 0.5,
                           InlReference ref = InlReference::kBestFit,
                           int threads = 1);

/// Monte-Carlo DNL yield at the same limit (checks the paper's remark that
/// DNL is automatically met when INL is, for reasonable segmentations).
YieldEstimate dnl_yield_mc(const core::DacSpec& spec, double sigma_unit,
                           int chips, std::uint64_t seed,
                           double dnl_limit = 0.5, int threads = 1);

/// Knobs for the adaptive yield estimators: evaluate chips in
/// thread-count-independent batches and stop once the Wilson 95 % CI
/// half-width falls below `ci_half_width` (never past `max_chips`).
struct AdaptiveMcOptions {
  int max_chips = 10000;       ///< hard cap
  int min_chips = 128;         ///< always evaluate at least this many
  int batch = 128;             ///< CI checked every `batch` chips
  double ci_half_width = 0.01; ///< stop tolerance; 0 disables early stop
  int threads = 1;             ///< 0 = hardware concurrency
};

/// Adaptive-early-stopping versions of the yield estimators. The stopping
/// point is decided at deterministic batch boundaries, so the returned
/// estimate is bit-identical for any thread count, and chips beyond the
/// stopping point are never evaluated (see YieldEstimate::stats).
YieldEstimate inl_yield_mc_adaptive(const core::DacSpec& spec,
                                    double sigma_unit,
                                    const AdaptiveMcOptions& opts,
                                    std::uint64_t seed,
                                    double inl_limit = 0.5,
                                    InlReference ref = InlReference::kBestFit);

YieldEstimate dnl_yield_mc_adaptive(const core::DacSpec& spec,
                                    double sigma_unit,
                                    const AdaptiveMcOptions& opts,
                                    std::uint64_t seed,
                                    double dnl_limit = 0.5);

}  // namespace csdac::dac
