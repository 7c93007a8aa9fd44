// Typed jobs of the runtime layer. A job is a pure, fully-specified unit
// of work: its result is determined by nothing but the fields serialized
// into its cache key (plus the engine version tag), and is bit-identical
// for any thread count — the property the whole caching design rests on,
// inherited from the mathx parallel engine's (seed, index) stream
// discipline. Thread count, cache location and trace settings are
// execution options and deliberately NOT part of the key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
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

// --- Results ---------------------------------------------------------------
//
// Fields<T> is a result type's one field list: its schema byte and
// each(v, f), which calls f(name, field) per field in encode order. It
// drives the cache codec and, by default, the reply JSON
// (serve::emit_result). A vector encodes as a u32 count plus its
// elements' lists. Changing a list changes its kind's cache bytes: bump
// kSchema with it, so old entries miss instead of misdecoding.
template <typename T>
struct Fields;

struct YieldResult {
  std::int64_t chips = 0;  ///< chips actually evaluated
  std::int64_t pass = 0;
  double yield = 0.0;
  double ci95 = 0.0;
};

template <>
struct Fields<YieldResult> {
  static constexpr std::uint8_t kSchema = 1;
  static void each(auto& v, auto&& f) {
    f("chips", v.chips);
    f("pass", v.pass);
    f("yield", v.yield);
    f("ci95", v.ci95);
  }
};

struct CalYieldResult {
  std::int64_t chips = 0;
  double yield_before = 0.0;
  double yield_after = 0.0;
};

template <>
struct Fields<CalYieldResult> {
  static constexpr std::uint8_t kSchema = 1;
  static void each(auto& v, auto&& f) {
    f("chips", v.chips);
    f("yield_before", v.yield_before);
    f("yield_after", v.yield_after);
  }
};

template <>
struct Fields<core::DesignPoint> {
  static void each(auto& v, auto&& f) {
    f("vod_cs", v.vod_cs);
    f("vod_sw", v.vod_sw);
    f("vod_cas", v.vod_cas);
    f("feasible", v.feasible);
    f("margin", v.margin);
    f("area", v.area);
    f("f_min_hz", v.f_min_hz);
    f("t_settle_s", v.t_settle_s);
    f("rout_unit", v.rout_unit);
  }
};

struct SweepResult {
  std::vector<core::DesignPoint> points;  ///< row-major over the axes
};

template <>
struct Fields<SweepResult> {
  static constexpr std::uint8_t kSchema = 1;
  static void each(auto& v, auto&& f) { f("points", v.points); }
};

struct SpectrumSummary {
  double sfdr_db = 0.0;
  double sndr_db = 0.0;
  double thd_db = 0.0;
  double enob = 0.0;
};

template <>
struct Fields<SpectrumSummary> {
  static constexpr std::uint8_t kSchema = 1;
  static void each(auto& v, auto&& f) {
    f("sfdr_db", v.sfdr_db);
    f("sndr_db", v.sndr_db);
    f("thd_db", v.thd_db);
    f("enob", v.enob);
  }
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

template <>
struct Fields<IsYieldResult> {
  static constexpr std::uint8_t kSchema = 1;
  static void each(auto& v, auto&& f) {
    f("chips", v.chips);
    f("fails", v.fails);
    f("yield", v.yield);
    f("ci95", v.ci95);
    f("ess", v.ess);
    f("ess_fraction", v.ess_fraction);
    f("log_weight_max", v.log_weight_max);
    f("log_weight_min", v.log_weight_min);
    f("low_ess", v.low_ess);
  }
};

struct StratYieldResult {
  std::int64_t chips = 0;
  std::int64_t pairs = 0;
  std::int32_t strata = 0;
  double yield = 0.0;
  double ci95 = 0.0;
};

template <>
struct Fields<StratYieldResult> {
  static constexpr std::uint8_t kSchema = 1;
  static void each(auto& v, auto&& f) {
    f("chips", v.chips);
    f("pairs", v.pairs);
    f("strata", v.strata);
    f("yield", v.yield);
    f("ci95", v.ci95);
  }
};

struct BridgeYieldResult {
  double yield = 0.0;
  double c = 0.0;          ///< normalized excursion limit
  double sigma_inl = 0.0;  ///< bridge scale [LSB]
};

template <>
struct Fields<BridgeYieldResult> {
  static constexpr std::uint8_t kSchema = 1;
  static void each(auto& v, auto&& f) {
    f("yield", v.yield);
    f("c", v.c);
    f("sigma_inl", v.sigma_inl);
  }
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

template <>
struct Fields<DynSpectrumResult> {
  static constexpr std::uint8_t kSchema = 1;
  static void each(auto& v, auto&& f) {
    f("chips", v.chips);
    f("pass", v.pass);
    f("yield", v.yield);
    f("ci95", v.ci95);
    f("sfdr_mean_db", v.sfdr_mean_db);
    f("sfdr_min_db", v.sfdr_min_db);
    f("sndr_mean_db", v.sndr_mean_db);
    f("ete_sfdr_mean_db", v.ete_sfdr_mean_db);
    f("cells", v.cells);
  }
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

template <>
struct Fields<ArchPoint> {
  static void each(auto& v, auto&& f) {
    f("scheme", v.scheme);
    f("param", v.param);
    f("cells", v.cells);
    f("inl_yield", v.inl_yield);
    f("inl_ci95", v.inl_ci95);
    f("sfdr_db", v.sfdr_db);
    f("ete_sfdr_db", v.ete_sfdr_db);
    f("activity", v.activity);
  }
};

struct ArchCompareResult {
  std::vector<ArchPoint> points;
};

template <>
struct Fields<ArchCompareResult> {
  static constexpr std::uint8_t kSchema = 1;
  static void each(auto& v, auto&& f) { f("points", v.points); }
};

/// kSpiceMc reuses the runner's own result struct (fixed-width fields).
using SpiceMcResult = dacgen::SpiceMcResult;

template <>
struct Fields<SpiceMcResult> {
  static constexpr std::uint8_t kSchema = 1;
  static void each(auto& v, auto&& f) {
    f("chips", v.chips);
    f("pass", v.pass);
    f("yield", v.yield);
    f("ci95", v.ci95);
    f("inl_mean", v.inl_mean);
    f("inl_worst", v.inl_worst);
    f("newton_iters", v.newton_iters);
    f("factorizations", v.factorizations);
    f("refactorizations", v.refactorizations);
    f("warm_starts", v.warm_starts);
    f("warm_start_hits", v.warm_start_hits);
    f("device_evals", v.device_evals);
    f("warm_start_hit_rate", v.warm_start_hit_rate);
  }
};

using JobValue =
    std::variant<YieldResult, CalYieldResult, SweepResult, SpectrumSummary,
                 IsYieldResult, StratYieldResult, BridgeYieldResult,
                 DynSpectrumResult, ArchCompareResult, SpiceMcResult>;

// --- Jobs ------------------------------------------------------------------
//
// Every job names its kind, its wire name and its result type. Adding a
// kind: README "Typed jobs".

/// Monte-Carlo INL (or DNL) parametric yield. With `adaptive`, `chips` is
/// the hard cap and the Wilson-CI early-stopping rule decides the actual
/// count — still thread-count invariant, so still cacheable.
struct InlYieldJob {
  static constexpr JobKind kKind = JobKind::kInlYield;
  static constexpr std::string_view kName = "inl_yield";
  using Result = YieldResult;
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
  static constexpr JobKind kKind = JobKind::kCalYield;
  static constexpr std::string_view kName = "cal_yield";
  using Result = CalYieldResult;
  core::DacSpec spec;
  double sigma_unit = 0.0;
  dac::CalibrationOptions cal;
  int chips = 1000;
  std::uint64_t seed = 0;
  double limit = 0.5;
};

/// Basic-cell design-space grid (row-major DesignPoint output).
struct SweepBasicJob {
  static constexpr JobKind kKind = JobKind::kSweepBasic;
  static constexpr std::string_view kName = "sweep_basic";
  using Result = SweepResult;
  core::DacSpec spec;
  tech::MosTechParams tech;
  core::GridAxis cs;
  core::GridAxis sw;
  core::MarginPolicy policy = core::MarginPolicy::kStatistical;
  double fixed_margin = 0.5;
};

/// Cascode-cell design-space volume.
struct SweepCascodeJob {
  static constexpr JobKind kKind = JobKind::kSweepCascode;
  static constexpr std::string_view kName = "sweep_cascode";
  using Result = SweepResult;
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
  static constexpr JobKind kKind = JobKind::kSpectrum;
  static constexpr std::string_view kName = "spectrum";
  using Result = SpectrumSummary;
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
  static constexpr JobKind kKind = JobKind::kInlYieldIs;
  static constexpr std::string_view kName = "inl_yield_is";
  using Result = IsYieldResult;
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
  static constexpr JobKind kKind = JobKind::kInlYieldStrat;
  static constexpr std::string_view kName = "inl_yield_strat";
  using Result = StratYieldResult;
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
  static constexpr JobKind kKind = JobKind::kInlYieldBridge;
  static constexpr std::string_view kName = "inl_yield_bridge";
  using Result = BridgeYieldResult;
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
  static constexpr JobKind kKind = JobKind::kDynSpectrum;
  static constexpr std::string_view kName = "dyn_spectrum";
  using Result = DynSpectrumResult;
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
  static constexpr JobKind kKind = JobKind::kArchCompare;
  static constexpr std::string_view kName = "arch_compare";
  using Result = ArchCompareResult;
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
  static constexpr JobKind kKind = JobKind::kSpiceMc;
  static constexpr std::string_view kName = "spice_mc";
  using Result = SpiceMcResult;
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

/// The kind table: alternative i is the job of JobKind(i + 1).
using Job = std::variant<InlYieldJob, CalYieldJob, SweepBasicJob,
                         SweepCascodeJob, SpectrumJob, InlYieldIsJob,
                         InlYieldStratJob, InlYieldBridgeJob, DynSpectrumJob,
                         ArchCompareJob, SpiceMcJob>;

inline constexpr std::size_t kNumKinds = std::variant_size_v<Job>;

// The kind byte is hashed into every cache key: reordering the
// alternatives would silently re-key (and mis-serve) every cached result.
static_assert(
    []<std::size_t... I>(std::index_sequence<I...>) {
      return ((std::variant_alternative_t<I, Job>::kKind ==
               static_cast<JobKind>(I + 1)) &&
              ...);
    }(std::make_index_sequence<kNumKinds>{}),
    "Job alternatives must be in JobKind order");

inline JobKind job_kind(const Job& job) {
  return static_cast<JobKind>(job.index() + 1);
}

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
