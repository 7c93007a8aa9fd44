// Chip-per-lane Monte-Carlo kernels, the one chip implementation of the
// static yield estimators. A LaneKernel evaluates `lanes` consecutive chips
// at once, one chip per vector lane, with every lane performing the scalar
// chip arithmetic in the scalar order — so the per-chip draws, trims and
// transfer tables are bit-identical to the allocating draw_source_errors →
// (calibrate →) SegmentedDac::transfer chain on the same streams. Each
// chip ends in a pass/fail verdict, max|INL| (or max|DNL|) < limit, which
// equals the verdict of analyze_transfer's maxima on that chain: the
// kernels decide from the segmented decomposition of the transfer and walk
// every code exactly only for a chip whose metric lies within a certified
// rounding bound of the limit (LaneKernelImpl::decide_block). The
// equivalence tests enforce both with EXPECT_EQ. The blocks:
//
//   mc_block     brute-force INL/DNL chips (inl_yield_mc, dnl_yield_mc)
//   cal_block    pre/post-calibration chips (calibration_yield_mc)
//   is_block     importance-sampled chips tilted along the leading
//                bridge modes, with their log likelihood ratios
//                (inl_yield_is)
//   strat_block  stratified antithetic pairs, one pair per lane
//                (inl_yield_stratified)
//
// The backends instantiate the shared LaneKernelImpl template over the
// mathx Ops policies: width 1 and SSE2 (the x86-64 baseline) in
// lane_kernel.cpp, AVX2 in lane_kernel_avx2.cpp (compiled with -mavx2);
// active_lane_kernel() picks the widest one the runtime dispatch
// (mathx::simd_backend, CSDAC_SIMD override) allows through one
// mathx::SimdKernels table.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/spec.hpp"
#include "dac/calibration.hpp"
#include "dac/static_analysis.hpp"
#include "mathx/parallel.hpp"
#include "mathx/simd.hpp"

namespace csdac::dac {

/// Widest lane count any backend uses (AVX2: 4 doubles). Callers size
/// stack output arrays with this.
inline constexpr int kMaxSimdLanes = 4;

/// What a chip's verdict compares with its limit: max|INL| or max|DNL|,
/// in LSB of the chip's own reference line.
enum class ChipMetric { kInl, kDnl };

/// Per-worker scratch for the lane-batched MC path. Arrays are
/// lane-interleaved — element i of lane l lives at [i * lanes + l], so one
/// vector load/store touches element i of every lane at once. A kernel
/// narrower than the workspace (the width-1 kernel running a run's short
/// last block) uses the same arrays at its own lane stride. Nothing here
/// scales with 2^n: the kernels form each transfer level on the fly from
/// unary_prefix and binsum, so the largest array is binsum's 2^b rows.
struct ChipWorkspaceXN {
  ChipWorkspaceXN(const core::DacSpec& spec, int lanes);

  core::DacSpec spec;   ///< validated copy
  int lanes;            ///< chips per block (the widest kernel it serves)
  /// The best-fit line's lane-independent x statistics over codes
  /// 0 .. 2^n - 1, computed once with analyze_levels_summary's branches:
  /// sum x, and n * sum x^2 - (sum x)^2.
  double x_sum = 0.0;
  double x_denom = 0.0;
  std::vector<double> unary;          ///< num_unary() x lanes mismatch draw
  std::vector<double> binary;         ///< binary_bits x lanes
  std::vector<double> trimmed_unary;  ///< post-calibration unary weights
  std::vector<double> unary_prefix;   ///< (num_unary()+1) x lanes
  std::vector<double> binsum;         ///< 2^b x lanes partial sums
  /// (num_unary()+binary_bits) x lanes standard normal draws in stream
  /// order: the unary draws (rows 0..num_unary()-1, tilted in place by the
  /// rare-event blocks), then the binary ones. The calibration trim reuses
  /// the first num_unary() rows for its measurement-noise draws.
  std::vector<double> z;
  std::vector<double> amp;            ///< num_unary() x lanes mode amplitudes
};

/// Raw-pointer view of a ChipWorkspaceXN plus the spec numbers the kernels
/// need. The per-ISA translation units work exclusively through this view:
/// keeping std::vector/DacSpec member functions out of the -mavx2 TU means
/// no shared inline function is ever emitted with AVX2 code (which the
/// linker could otherwise pick for the whole program).
struct LaneView {
  int lanes = 0;
  int num_unary = 0;
  int binary_bits = 0;
  int n_codes = 0;
  double unary_weight = 0.0;
  double x_sum = 0.0;    ///< ChipWorkspaceXN::x_sum
  double x_denom = 0.0;  ///< ChipWorkspaceXN::x_denom
  double* unary = nullptr;
  double* binary = nullptr;
  double* trimmed_unary = nullptr;
  double* unary_prefix = nullptr;
  double* binsum = nullptr;
  double* z = nullptr;
  double* amp = nullptr;
};

/// Constants of one rare-event run, computed once in scalar (libm log
/// included) by dac/rare_event.cpp and shared read-only by every worker.
/// Raw pointers for the same reason as LaneView.
struct RareRun {
  double sigma_unit = 0.0;
  std::uint64_t seed = 0;
  double inl_limit = 0.5;
  InlReference ref = InlReference::kBestFit;
  /// Orthonormal cosine (bridge) modes, `modes` x num_unary row-major,
  /// modes < num_unary (ChipWorkspaceXN::amp holds one row per mode). IS
  /// tilts all of them; the stratified path uses row 0.
  const double* basis = nullptr;
  int modes = 0;
  const double* log_g = nullptr;      ///< IS: log g_k per mode
  const double* half_g2m1 = nullptr;  ///< IS: 0.5 * (g_k^2 - 1)
  const double* g_minus_1 = nullptr;  ///< IS: g_k - 1, the amplitude boost
  int strata = 0;                     ///< stratified: equal-probability bins
};

/// One SIMD backend's chip-block kernels, as plain function pointers so
/// the dispatch is a table lookup and the per-ISA code stays confined to
/// its own translation unit. For all four blocks, ws.lanes may exceed
/// lanes: a block touches only the first `lanes` lanes of the workspace, at
/// its own lane stride, which is how the width-1 kernel runs a wider run's
/// remainder chips in that run's workspace.
struct LaneKernel {
  mathx::SimdBackend backend = mathx::SimdBackend::kScalar;
  int lanes = 1;

  /// Evaluates chips [chip0, chip0 + lanes): per-lane mismatch draw
  /// (stream chip0 + l), transfer, and pass[l] = metric < limit, where
  /// metric is max|INL| or max|DNL| against `ref`. The verdict equals the
  /// one analyze_transfer(SegmentedDac(spec, draw_source_errors(spec,
  /// sigma_unit, stream_rng(seed, chip0 + l))).transfer(), ref)'s maxima
  /// give.
  void (*mc_block)(ChipWorkspaceXN& ws, double sigma_unit,
                   std::uint64_t seed, std::int64_t chip0, InlReference ref,
                   ChipMetric metric, double limit, bool* pass) = nullptr;

  /// Calibration chip block: per-lane draw (stream 2*(chip0+l)), pre-cal
  /// pass/fail, the vector trim (noise on stream 2*(chip0+l)+1, trimmed
  /// unary weights left in ws.trimmed_unary), post-cal pass/fail. The
  /// trimmed weights are bit-identical to calibrate's and the verdicts
  /// equal the allocating chain's (see calibration_yield_mc).
  void (*cal_block)(ChipWorkspaceXN& ws, double sigma_unit,
                    const CalibrationOptions& opts, std::uint64_t seed,
                    std::int64_t chip0, double inl_limit, bool* pass_before,
                    bool* pass_after) = nullptr;

  /// Importance-sampled chips [chip0, chip0 + lanes) on streams chip0 + l:
  /// standard draw, mode amplitudes t_k, log_w[l] = sum_k log g_k -
  /// 0.5 (g_k^2 - 1) t_k^2, tilt z += (g_k - 1) t_k v_k, transfer, and
  /// fail[l] = !(max|INL| < inl_limit).
  void (*is_block)(ChipWorkspaceXN& ws, const RareRun& run,
                   std::int64_t chip0, double* log_w,
                   unsigned char* fail) = nullptr;

  /// Stratified antithetic pairs [pair0, pair0 + lanes), one pair per lane
  /// on stream pair0 + l: one standard draw, then the first-mode amplitude
  /// replaced by the stratified half-normal magnitude (reflected within
  /// its bin for the second member). pass[2l] / pass[2l+1] are the two
  /// members' max|INL| < inl_limit.
  void (*strat_block)(ChipWorkspaceXN& ws, const RareRun& run,
                      std::int64_t pair0, unsigned char* pass) = nullptr;

  /// Test hooks: `count` lane-parallel draws from the (seed, index0 +
  /// stride*l) substreams, lane-interleaved into out[draw * lanes + l].
  /// Each lane must reproduce the scalar stream_rng / normal sequence;
  /// draw_normals runs the blocks' batched draw, mathx::normal_batch_xN.
  /// draw_bits first draws `normals` normals (discarded), so its raw words
  /// show the generator state the batched draw leaves behind.
  void (*draw_normals)(std::uint64_t seed, std::uint64_t index0,
                       std::uint64_t stride, int count, double* out) = nullptr;
  void (*draw_bits)(std::uint64_t seed, std::uint64_t index0,
                    std::uint64_t stride, int normals, int count,
                    std::uint64_t* out) = nullptr;

  /// Test hooks on mc_block's chips (same draw, same transfer tables).
  /// mc_values: the exact walk's maxima, bit-identical to
  /// analyze_transfer's. mc_bounds: the segmented decomposition's maxima
  /// and their certified bounds, each at least 4x the distance from the
  /// exact walk's value (+inf where the gain is not certified nonzero).
  void (*mc_values)(ChipWorkspaceXN& ws, double sigma_unit,
                    std::uint64_t seed, std::int64_t chip0, InlReference ref,
                    StaticSummary* out) = nullptr;
  void (*mc_bounds)(ChipWorkspaceXN& ws, double sigma_unit,
                    std::uint64_t seed, std::int64_t chip0, InlReference ref,
                    StaticSummary* fast, StaticSummary* bound) = nullptr;
  /// Test hook: the trim's std::round on lanes values, in[l] -> out[l].
  void (*round_half_away)(const double* in, double* out) = nullptr;
};

/// Kernel for a specific backend, or nullptr if this build/CPU cannot run
/// it (e.g. lane_kernel(kAvx2) on a non-x86 build). The scalar kernel is
/// always available: it is the shared LaneKernelImpl template instantiated
/// at width 1, so the template logic itself is testable everywhere.
const LaneKernel* lane_kernel(mathx::SimdBackend backend);

/// The kernel MC runs dispatch to: mathx::simd_backend() (CSDAC_SIMD
/// override included), or the widest narrower kernel in this build.
const LaneKernel& active_lane_kernel();

namespace detail {

/// The AVX2 kernel singleton (lane_kernel_avx2.cpp; nullptr when the
/// compiler cannot target AVX2).
const LaneKernel* lane_kernel_avx2();

/// Raw-pointer view of ws (out-of-line; see LaneView).
LaneView lane_view(ChipWorkspaceXN& ws);

/// Records one decide_block call in the dac.decide.* counters: `lanes`
/// verdicts, `exact_lanes` of them taken from the exact walk.
void count_decisions(int lanes, int exact_lanes);

/// One block of a lane-block run: evaluates unit * k.lanes items from `lo`
/// on kernel k in workspace ws and returns how many of them passed.
using LaneBlockFn = std::function<std::int64_t(
    const LaneKernel& k, ChipWorkspaceXN& ws, std::int64_t lo)>;

/// The one driver of the lane-kernel estimators (INL/DNL yield, fixed and
/// adaptive, calibration, importance-sampled and stratified yield): runs
/// items [0, opts.max_items) on mathx::run_blocks in blocks of unit *
/// k.lanes items (unit = items per lane: 1 for a chip, 2 for an
/// antithetic pair), one ChipWorkspaceXN per worker. A full block goes to
/// the active kernel k; a short block (the end of a run or of a CI wave)
/// goes lane by lane through the width-1 kernel in the same workspace. The
/// scalar backend is the width-1 kernel, so there every block is full.
/// Records the run once in the simd.* metrics: simd.dispatch.<backend>
/// (mathx::record_dispatch), the chips through vector lanes
/// (simd.lanes_utilized) and through the width-1 kernel
/// (simd.chips_scalar_tail), and the simd.lane_width gauge. The kernels
/// themselves count their verdicts in dac.decide.lanes and
/// dac.decide.exact_lanes (count_decisions).
mathx::YieldRun run_lane_blocks(const core::DacSpec& spec,
                                const mathx::EarlyStopOptions& opts,
                                int threads, int unit,
                                const LaneBlockFn& block);

/// Out-of-line throw helpers so the per-ISA translation units never
/// instantiate exception-construction code.
[[noreturn]] void throw_bad_sigma();
[[noreturn]] void throw_degenerate();
[[noreturn]] void throw_flat();

}  // namespace detail

}  // namespace csdac::dac
