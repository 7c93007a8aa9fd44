// Chip-per-lane Monte-Carlo kernels, the one chip implementation of the
// static yield estimators. A LaneKernel evaluates `lanes` consecutive chips
// at once, one chip per vector lane, with every lane performing the scalar
// chip arithmetic in the scalar order — so the per-chip metrics are
// bit-identical to the allocating draw_source_errors → (calibrate →)
// SegmentedDac::transfer → analyze_transfer chain on the same streams,
// which the equivalence tests enforce with EXPECT_EQ. The blocks:
//
//   mc_block     brute-force INL/DNL chips (inl_yield_mc, dnl_yield_mc)
//   cal_block    pre/post-calibration chips (calibration_yield_mc)
//   is_block     importance-sampled chips tilted along the leading
//                bridge modes, with their log likelihood ratios
//                (inl_yield_is)
//   strat_block  stratified antithetic pairs, one pair per lane
//                (inl_yield_stratified)
//
// Backends are separate translation units (lane_kernel_sse2.cpp with
// baseline flags — SSE2 is part of x86-64 —, lane_kernel_avx2.cpp compiled
// with -mavx2) instantiating the shared LaneKernelImpl template over the
// mathx Ops policies; active_lane_kernel() picks the widest one the
// runtime dispatch (mathx::simd_backend, CSDAC_SIMD override) allows.
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

/// One chip's scratch for the scalar calibration trim (calibrate_into
/// reads and writes nothing else), so a lane workspace carries no 2^n
/// per-chip arrays.
struct TrimScratch {
  mathx::Xoshiro256 rng{0};  ///< re-seeded per lane via stream_rng_into
  SourceErrors errors;       ///< the lane's gathered mismatch draw
  SourceErrors trimmed;      ///< calibrate_into's output
};

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
  TrimScratch trim;     ///< calibration trim gather/scatter
  std::vector<double> unary;          ///< num_unary() x lanes mismatch draw
  std::vector<double> binary;         ///< binary_bits x lanes
  std::vector<double> trimmed_unary;  ///< post-calibration unary weights
  std::vector<double> unary_prefix;   ///< (num_unary()+1) x lanes
  std::vector<double> binsum;         ///< 2^b x lanes partial sums
  /// (num_unary()+binary_bits) x lanes standard normal draws in stream
  /// order: the unary draws (rows 0..num_unary()-1, tilted in place by the
  /// rare-event blocks), then the binary ones.
  std::vector<double> z;
  std::vector<double> polar;          ///< z-sized normal_batch_xN scratch
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
  double* unary = nullptr;
  double* binary = nullptr;
  double* trimmed_unary = nullptr;
  double* unary_prefix = nullptr;
  double* binsum = nullptr;
  double* z = nullptr;
  double* polar = nullptr;
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
  /// (stream chip0 + l), transfer, INL/DNL maxima into out[0..lanes).
  /// Bit-identical to analyze_transfer(SegmentedDac(spec,
  /// draw_source_errors(spec, sigma_unit, stream_rng(seed, chip0 + l)))
  /// .transfer(), ref)'s maxima.
  void (*mc_block)(ChipWorkspaceXN& ws, double sigma_unit,
                   std::uint64_t seed, std::int64_t chip0, InlReference ref,
                   StaticSummary* out) = nullptr;

  /// Calibration chip block: per-lane draw (stream 2*(chip0+l)), pre-cal
  /// pass/fail, scalar per-lane trim (stream 2*(chip0+l)+1), post-cal
  /// pass/fail. Bit-identical to the allocating chain with calibrate
  /// between the two analyses (see calibration_yield_mc).
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
  void (*draw_normals)(std::uint64_t seed, std::uint64_t index0,
                       std::uint64_t stride, int count, double* out) = nullptr;
  void (*draw_bits)(std::uint64_t seed, std::uint64_t index0,
                    std::uint64_t stride, int count,
                    std::uint64_t* out) = nullptr;
};

/// Kernel for a specific backend, or nullptr if this build/CPU cannot run
/// it (e.g. lane_kernel(kAvx2) on a non-x86 build). The scalar kernel is
/// always available: it is the shared LaneKernelImpl template instantiated
/// at width 1, so the template logic itself is testable everywhere.
const LaneKernel* lane_kernel(mathx::SimdBackend backend);

/// The kernel MC runs dispatch to: mathx::simd_backend() (CSDAC_SIMD
/// override included), downgraded along avx2 -> sse2 -> scalar if the
/// preferred backend has no kernel in this build.
const LaneKernel& active_lane_kernel();

namespace detail {

/// Per-ISA kernel singletons (nullptr when compiled out).
const LaneKernel* lane_kernel_sse2();
const LaneKernel* lane_kernel_avx2();

/// Raw-pointer view of ws (out-of-line; see LaneView).
LaneView lane_view(ChipWorkspaceXN& ws);

/// Scalar per-lane calibration trim for a `lanes`-wide kernel: gathers
/// lane l's mismatch draw (lane stride `lanes`, which may be less than
/// ws.lanes) into ws.trim.errors, runs the real calibrate_into on the
/// (seed, 2*(chip0+l)+1) stream, scatters the trimmed unary weights into
/// ws.trimmed_unary at the same stride. Scalar because the trim rounds
/// with std::round (half-away-from-zero) while SIMD rounding is
/// to-nearest-even — the one step of the chip pipeline with no
/// bit-identical vector equivalent.
void cal_trim_lanes(ChipWorkspaceXN& ws, int lanes,
                    const CalibrationOptions& opts, std::uint64_t seed,
                    std::int64_t chip0);

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
/// Records the run in the simd.* metrics: simd.dispatch.<backend>, the
/// chips through vector lanes (simd.lanes_utilized) and through the width-1
/// kernel (simd.chips_scalar_tail), and the simd.lane_width gauge.
mathx::YieldRun run_lane_blocks(const core::DacSpec& spec,
                                const mathx::EarlyStopOptions& opts,
                                int threads, int unit,
                                const LaneBlockFn& block,
                                bool count_allocs = false);

/// Out-of-line throw helpers so the per-ISA translation units never
/// instantiate exception-construction code.
[[noreturn]] void throw_bad_sigma();
[[noreturn]] void throw_degenerate();
[[noreturn]] void throw_flat();

}  // namespace detail

}  // namespace csdac::dac
