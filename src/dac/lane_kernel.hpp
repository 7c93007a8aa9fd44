// Chip-per-lane Monte-Carlo kernels: the SIMD counterpart of
// mc_chip_metrics. A LaneKernel evaluates `lanes` consecutive chips at
// once, one chip per vector lane, with every lane performing the scalar
// kernel's arithmetic in the scalar order — so the per-chip metrics are
// bit-identical to mc_chip_metrics / the calibration chip pass, which the
// equivalence tests enforce with EXPECT_EQ. The blocks:
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
#include <vector>

#include "core/spec.hpp"
#include "dac/calibration.hpp"
#include "dac/static_analysis.hpp"
#include "mathx/simd.hpp"

namespace csdac::dac {

/// Widest lane count any backend uses (AVX2: 4 doubles). Callers size
/// stack output arrays with this.
inline constexpr int kMaxSimdLanes = 4;

/// Per-worker scratch for the lane-batched MC path: the widened
/// ChipWorkspace. Arrays are lane-interleaved — element i of lane l lives
/// at [i * lanes + l], so one vector load/store touches element i of every
/// lane at once. Also embeds a plain scalar ChipWorkspace for the
/// remainder chips of a run (chips % lanes) and for the per-lane scalar
/// calibration trim.
struct ChipWorkspaceXN {
  ChipWorkspaceXN(const core::DacSpec& spec, int lanes);

  core::DacSpec spec;   ///< validated copy
  int lanes;            ///< chips per block
  ChipWorkspace scalar; ///< tail chips + calibration gather/scatter
  std::vector<double> unary;          ///< num_unary() x lanes mismatch draw
  std::vector<double> binary;         ///< binary_bits x lanes
  std::vector<double> trimmed_unary;  ///< post-calibration unary weights
  std::vector<double> unary_prefix;   ///< (num_unary()+1) x lanes
  std::vector<double> binsum;         ///< 2^b x lanes partial sums
  std::vector<double> levels;         ///< 2^n x lanes transfer levels
  std::vector<double> z;              ///< num_unary() x lanes standard draw
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
  double* levels = nullptr;
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
/// its own translation unit.
struct LaneKernel {
  mathx::SimdBackend backend = mathx::SimdBackend::kScalar;
  int lanes = 1;

  /// Evaluates chips [chip0, chip0 + lanes): per-lane mismatch draw
  /// (stream chip0 + l), transfer, INL/DNL maxima into out[0..lanes).
  /// Bit-identical to mc_chip_metrics(ws, sigma_unit, seed, chip0 + l).
  void (*mc_block)(ChipWorkspaceXN& ws, double sigma_unit,
                   std::uint64_t seed, std::int64_t chip0, InlReference ref,
                   StaticSummary* out) = nullptr;

  /// Calibration chip block: per-lane draw (stream 2*(chip0+l)), pre-cal
  /// pass/fail, scalar per-lane trim (stream 2*(chip0+l)+1), post-cal
  /// pass/fail. Bit-identical to the calibration_yield_mc chip body.
  void (*cal_block)(ChipWorkspaceXN& ws, double sigma_unit,
                    const CalibrationOptions& opts, std::uint64_t seed,
                    std::int64_t chip0, double inl_limit, bool* pass_before,
                    bool* pass_after) = nullptr;

  /// Importance-sampled chips [chip0, chip0 + lanes) on streams chip0 + l:
  /// standard draw, mode amplitudes t_k, log_w[l] = sum_k log g_k -
  /// 0.5 (g_k^2 - 1) t_k^2, tilt z += (g_k - 1) t_k v_k, transfer, and
  /// fail[l] = !(max|INL| < inl_limit). ws.lanes may exceed lanes (the
  /// width-1 kernel runs a wider run's remainder chips in its workspace).
  void (*is_block)(ChipWorkspaceXN& ws, const RareRun& run,
                   std::int64_t chip0, double* log_w,
                   unsigned char* fail) = nullptr;

  /// Stratified antithetic pairs [pair0, pair0 + lanes), one pair per lane
  /// on stream pair0 + l: one standard draw, then the first-mode amplitude
  /// replaced by the stratified half-normal magnitude (reflected within
  /// its bin for the second member). pass[2l] / pass[2l+1] are the two
  /// members' max|INL| < inl_limit. Same ws.lanes rule as is_block.
  void (*strat_block)(ChipWorkspaceXN& ws, const RareRun& run,
                      std::int64_t pair0, unsigned char* pass) = nullptr;

  /// Test hooks: `count` lane-parallel draws from the (seed, index0 +
  /// stride*l) substreams, lane-interleaved into out[draw * lanes + l].
  /// Each lane must reproduce the scalar stream_rng / normal sequence.
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

/// Convenience wrapper over k.mc_block (ws.lanes must equal k.lanes).
void mc_chip_metrics_xN(const LaneKernel& k, ChipWorkspaceXN& ws,
                        double sigma_unit, std::uint64_t seed,
                        std::int64_t chip0, InlReference ref,
                        StaticSummary* out);

namespace detail {

/// Per-ISA kernel singletons (nullptr when compiled out).
const LaneKernel* lane_kernel_sse2();
const LaneKernel* lane_kernel_avx2();

/// Raw-pointer view of ws (out-of-line; see LaneView).
LaneView lane_view(ChipWorkspaceXN& ws);

/// Scalar per-lane calibration trim: gathers lane l's mismatch draw into
/// ws.scalar.errors, runs the real calibrate_into on the (seed,
/// 2*(chip0+l)+1) stream, scatters the trimmed unary weights into
/// ws.trimmed_unary. Scalar because the trim rounds with std::round
/// (half-away-from-zero) while SIMD rounding is to-nearest-even — the one
/// step of the chip pipeline with no bit-identical vector equivalent.
void cal_trim_lanes(ChipWorkspaceXN& ws, const CalibrationOptions& opts,
                    std::uint64_t seed, std::int64_t chip0);

/// Records one dispatched MC run in the simd.* metrics: bumps the
/// simd.dispatch.<backend> counter, adds the chips that went through
/// vector lanes (simd.lanes_utilized) and through the scalar remainder
/// path (simd.chips_scalar_tail), and sets the simd.lane_width gauge.
void record_lane_run(const LaneKernel& k, std::int64_t vector_chips,
                     std::int64_t scalar_tail_chips);

/// Out-of-line throw helpers so the per-ISA translation units never
/// instantiate exception-construction code.
[[noreturn]] void throw_bad_sigma();
[[noreturn]] void throw_degenerate();
[[noreturn]] void throw_flat();

}  // namespace detail

}  // namespace csdac::dac
