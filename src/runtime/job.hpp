// Typed jobs of the runtime layer. A job is a pure, fully-specified unit
// of work: its result is determined by nothing but the fields serialized
// into its cache key (plus the engine version tag), and is bit-identical
// for any thread count — the property the whole caching design rests on,
// inherited from the mathx parallel engine's (seed, index) stream
// discipline. Thread count, cache location and trace settings are
// execution options and deliberately NOT part of the key.
#pragma once

#include <cstdint>
#include <string_view>
#include <variant>
#include <vector>

#include "arch/dyn_sim.hpp"
#include "arch/weighting.hpp"
#include "core/explorer.hpp"
#include "core/spec.hpp"
#include "dac/calibration.hpp"
#include "dac/dynamic.hpp"
#include "dac/rare_event.hpp"
#include "dac/static_analysis.hpp"
#include "dacgen/spice_mc.hpp"
#include "mathx/hash.hpp"
#include "mathx/parallel.hpp"
#include "tech/tech.hpp"

namespace csdac::runtime {

/// Version tag hashed into every cache key. Bump whenever ANY numeric
/// behavior of a job changes (kernel arithmetic, RNG streams, defaults
/// that leak into results): stale entries then miss naturally instead of
/// serving results the current code would not reproduce.
inline constexpr std::string_view kEngineVersion = "csdac-engine/1";

enum class JobKind : std::uint8_t {
  kInlYield = 1,
  kCalYield = 2,
  kSweepBasic = 3,
  kSweepCascode = 4,
  kSpectrum = 5,
  kInlYieldIs = 6,
  kInlYieldStrat = 7,
  kInlYieldBridge = 8,
  kDynSpectrum = 9,
  kArchCompare = 10,
  kSpiceMc = 11,
};

std::string_view kind_name(JobKind kind);

/// Monte-Carlo INL (or DNL) parametric yield. With `adaptive`, `chips` is
/// the hard cap and the Wilson-CI early-stopping rule decides the actual
/// count — still thread-count invariant, so still cacheable.
struct InlYieldJob {
  core::DacSpec spec;
  double sigma_unit = 0.0;
  int chips = 1000;
  std::uint64_t seed = 0;
  double limit = 0.5;  ///< pass limit [LSB]
  dac::InlReference ref = dac::InlReference::kBestFit;
  bool dnl = false;  ///< judge max|DNL| instead of max|INL| (best-fit ref)
  bool adaptive = false;
  int min_chips = 128;
  int batch = 128;
  double ci_half_width = 0.0;
};

/// Calibration-in-the-loop yield (pre/post trim).
struct CalYieldJob {
  core::DacSpec spec;
  double sigma_unit = 0.0;
  dac::CalibrationOptions cal;
  int chips = 1000;
  std::uint64_t seed = 0;
  double limit = 0.5;
};

/// Basic-cell design-space grid (row-major DesignPoint output).
struct SweepBasicJob {
  core::DacSpec spec;
  tech::MosTechParams tech;
  core::GridAxis cs;
  core::GridAxis sw;
  core::MarginPolicy policy = core::MarginPolicy::kStatistical;
  double fixed_margin = 0.5;
};

/// Cascode-cell design-space volume.
struct SweepCascodeJob {
  core::DacSpec spec;
  tech::MosTechParams tech;
  core::GridAxis cs;
  core::GridAxis sw;
  core::GridAxis cas;
  core::MarginPolicy policy = core::MarginPolicy::kStatistical;
  double fixed_margin = 0.5;
  core::SigmaAggregation agg = core::SigmaAggregation::kMax;
};

/// Behavioral-model spectrum of a coherent sine capture (Fig. 8 style):
/// one mismatch draw, dynamic waveform synthesis, DFT metrics.
struct SpectrumJob {
  core::DacSpec spec;
  double sigma_unit = 0.0;  ///< 0 = ideal (mismatch-free) sources
  std::uint64_t seed = 0;   ///< mismatch stream (and jitter stream if any)
  dac::DynamicParams dyn;
  int n_samples = 1024;
  int cycles = 181;  ///< coprime with n_samples for coherent capture
  bool differential = true;
};

/// Importance-sampled INL yield (rare-event tail): the mismatch draw is
/// tilted along the first `modes` bridge modes by `sigma_scale` and each
/// chip reweighted by the exact likelihood ratio (dac::inl_yield_is).
struct InlYieldIsJob {
  core::DacSpec spec;
  double sigma_unit = 0.0;
  double sigma_scale = 2.2;  ///< first-mode tilt, >= 1 (1 = plain MC)
  int modes = 8;             ///< tilted bridge modes, >= 1
  int chips = 1000;
  std::uint64_t seed = 0;
  double limit = 0.5;  ///< pass limit [LSB]
  dac::InlReference ref = dac::InlReference::kBestFit;
};

/// Stratified + antithetic INL yield (dac::inl_yield_stratified):
/// half-normal first-mode magnitude over `strata` equal-probability bins,
/// reflected within the bin for the antithetic pair member.
struct InlYieldStratJob {
  core::DacSpec spec;
  double sigma_unit = 0.0;
  int strata = 16;
  int chips = 1000;  ///< rounded down to a whole number of pairs
  std::uint64_t seed = 0;
  double limit = 0.5;
  dac::InlReference ref = dac::InlReference::kBestFit;
};

/// Closed-form Brownian-bridge INL-excursion surrogate (no sampling;
/// dac::inl_yield_bridge). sigma_unit must be > 0.
struct InlYieldBridgeJob {
  core::DacSpec spec;
  double sigma_unit = 0.0;
  double limit = 0.5;
};

/// Mismatch-MC yield over the timing-limited SFDR of an arbitrary cell
/// weighting (arch::ArchSimulator): each chip draws per-cell skew and
/// rise/fall asymmetry from the (seed, chip) stream, synthesizes the
/// oversampled waveform, and passes when in-band SFDR >= sfdr_limit_db.
/// The ETE prediction runs on the same draws as a cross-check. With
/// `adaptive`, Wilson-CI early stopping as in InlYieldJob.
struct DynSpectrumJob {
  core::DacSpec spec;
  arch::WeightingKind scheme = arch::WeightingKind::kSegmented;
  /// Segmented: binary split (0 = spec default). Optimized: cell budget
  /// (0 = match the default segmented cell count). Binary/unary: must be 0.
  int scheme_param = 0;
  arch::TimingParams timing;
  int n_samples = 256;
  int cycles = 21;  ///< coprime with n_samples for coherent capture
  double sfdr_limit_db = 60.0;
  int chips = 32;
  std::uint64_t seed = 0;
  bool adaptive = false;
  int min_chips = 8;
  int batch = 8;
  double ci_half_width = 0.0;
};

/// Architecture-comparison sweep: binary, segmented splits in
/// [seg_lo, seg_hi], optionally unary, and the optimized weighting, each
/// reporting amplitude-INL yield (common-random-numbers unit pool shared
/// across architectures) and timing-limited SFDR side by side.
struct ArchCompareJob {
  core::DacSpec spec;
  double sigma_unit = 0.0;  ///< relative unit-current mismatch sigma
  arch::TimingParams timing;
  int n_samples = 256;
  int cycles = 21;
  int chips = 200;     ///< amplitude-INL MC chips per architecture
  int dyn_chips = 4;   ///< timing-MC waveform draws per architecture
  std::uint64_t seed = 0;
  double limit = 0.5;  ///< INL pass limit [LSB]
  int seg_lo = 2;
  int seg_hi = 6;
  bool include_unary = false;
  int opt_cells = 0;  ///< 0 = match the default segmented cell count
};

/// SPICE-in-the-loop mismatch MC (dacgen::spice_mismatch_mc): each corner
/// perturbs every transistor of the netlist-level DAC with Pelgrom
/// Vth/beta draws from the (seed, corner) stream and judges max|INL| on
/// MNA-solved transfer functions. The unit cell is sized inside the job
/// from (spec, tech, vod_*), so the job stays fully value-specified.
struct SpiceMcJob {
  core::DacSpec spec;
  tech::MosTechParams tech;
  double vod_cs = 0.25;
  double vod_sw = 0.2;
  double vod_cas = 0.2;  ///< ignored when cascode = false
  bool cascode = true;
  int chips = 16;  ///< Monte-Carlo corners
  std::uint64_t seed = 0;
  double limit = 0.5;        ///< max|INL| pass limit [LSB]
  double sigma_scale = 1.0;  ///< scales the Pelgrom sigmas
  bool differential = true;
  bool with_caps = false;
};

using Job = std::variant<InlYieldJob, CalYieldJob, SweepBasicJob,
                         SweepCascodeJob, SpectrumJob, InlYieldIsJob,
                         InlYieldStratJob, InlYieldBridgeJob, DynSpectrumJob,
                         ArchCompareJob, SpiceMcJob>;

JobKind job_kind(const Job& job);

// --- Results ---------------------------------------------------------------

struct YieldResult {
  std::int64_t chips = 0;  ///< chips actually evaluated
  std::int64_t pass = 0;
  double yield = 0.0;
  double ci95 = 0.0;
};

struct CalYieldResult {
  std::int64_t chips = 0;
  double yield_before = 0.0;
  double yield_after = 0.0;
};

struct SweepResult {
  std::vector<core::DesignPoint> points;  ///< row-major over the axes
};

struct SpectrumSummary {
  double sfdr_db = 0.0;
  double sndr_db = 0.0;
  double thd_db = 0.0;
  double enob = 0.0;
};

struct IsYieldResult {
  std::int64_t chips = 0;
  std::int64_t fails = 0;  ///< raw failures under the inflated proposal
  double yield = 0.0;      ///< 1 - self-normalized failure probability
  double ci95 = 0.0;       ///< delta-method 95 % half-width
  double ess = 0.0;
  double ess_fraction = 0.0;
  double log_weight_max = 0.0;
  double log_weight_min = 0.0;
  bool low_ess = false;  ///< ess_fraction below the trust threshold
};

struct StratYieldResult {
  std::int64_t chips = 0;
  std::int64_t pairs = 0;
  std::int32_t strata = 0;
  double yield = 0.0;
  double ci95 = 0.0;
};

struct BridgeYieldResult {
  double yield = 0.0;
  double c = 0.0;          ///< normalized excursion limit
  double sigma_inl = 0.0;  ///< bridge scale [LSB]
};

struct DynSpectrumResult {
  std::int64_t chips = 0;  ///< chips actually evaluated
  std::int64_t pass = 0;
  double yield = 0.0;
  double ci95 = 0.0;
  double sfdr_mean_db = 0.0;  ///< waveform-MC mean in-band SFDR
  double sfdr_min_db = 0.0;
  double sndr_mean_db = 0.0;
  double ete_sfdr_mean_db = 0.0;  ///< ETE-predicted mean SFDR (cross-check)
  std::int32_t cells = 0;         ///< resolved cell count of the weighting
};

struct ArchPoint {
  std::uint8_t scheme = 0;  ///< arch::WeightingKind
  std::int32_t param = 0;   ///< resolved split / cell budget
  std::int32_t cells = 0;
  double inl_yield = 0.0;
  double inl_ci95 = 0.0;
  double sfdr_db = 0.0;      ///< mean waveform-MC SFDR over dyn_chips
  double ete_sfdr_db = 0.0;  ///< mean ETE-predicted SFDR, same draws
  double activity = 0.0;     ///< timing-distortion proxy sum w^2 N
};

struct ArchCompareResult {
  std::vector<ArchPoint> points;
};

/// kSpiceMc reuses the runner's own result struct (fixed-width fields).
using SpiceMcResult = dacgen::SpiceMcResult;

using JobValue =
    std::variant<YieldResult, CalYieldResult, SweepResult, SpectrumSummary,
                 IsYieldResult, StratYieldResult, BridgeYieldResult,
                 DynSpectrumResult, ArchCompareResult, SpiceMcResult>;

// --- Key and result codec --------------------------------------------------

/// Appends the canonical input bytes (engine version, kind tag, every
/// result-determining parameter in fixed order) to `w`.
void canonical_inputs(const Job& job, mathx::ByteWriter& w);

/// The job's cache key: hash128 of canonical_inputs.
mathx::HashKey128 job_key(const Job& job);

/// Result payload codec (the cache adds its own corruption framing).
void encode_value(const JobValue& value, mathx::ByteWriter& w);

/// Strict decode for `kind`; false on any mismatch (schema drift, trailing
/// bytes) — the caller then recomputes.
bool decode_value(JobKind kind, mathx::ByteReader& r, JobValue& out);

/// Executes the job fresh on `threads` engine workers (0 = hardware
/// concurrency). Fills `stats` with the engine run record when non-null;
/// its wall_seconds and items_per_second (evaluated / wall) always time
/// the whole runner, for every kind.
JobValue execute_job(const Job& job, int threads, mathx::RunStats* stats);

}  // namespace csdac::runtime
