// Typed jobs of the runtime layer. A job is a pure, fully-specified unit
// of work: its result is determined by nothing but the fields serialized
// into its cache key (plus the engine version tag), and is bit-identical
// for any thread count — the property the whole caching design rests on,
// inherited from the mathx parallel engine's (seed, index) stream
// discipline. Thread count, cache location and trace settings are
// execution options and deliberately NOT part of the key.
#pragma once

#include <cstddef>
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "arch/dyn_sim.hpp"
#include "arch/weighting.hpp"
#include "core/explorer.hpp"
#include "core/spec.hpp"
#include "dac/calibration.hpp"
#include "dac/dac_model.hpp"
#include "dac/rare_event.hpp"
#include "dac/static_analysis.hpp"
#include "dacgen/spice_mc.hpp"
#include "mathx/hash.hpp"
#include "mathx/parallel.hpp"
#include "tech/tech.hpp"

namespace csdac::dac {

/// The dynamics of a `spectrum` job's converter
/// (runtime::spectrum_converter).
struct DynamicParams {
  double fs = 300e6;        ///< sample rate [S/s]
  int oversample = 16;      ///< waveform points per sample period
  double tau = 0.25e-9;     ///< dominant settling time constant [s]
  /// Output resistance of one LSB unit [Ohm]; code-dependent droop comes
  /// from `level` units being on. Infinity-like values disable the effect.
  double rout_unit = 1e15;
  double binary_skew = 0.0;    ///< binary cells' extra latch delay [s]
  double jitter_sigma = 0.0;   ///< per-period clock edge jitter sigma [s]
  /// Clock-feedthrough kick per toggling thermometer cell, in LSB of
  /// voltage (signed).
  double feedthrough_lsb = 0.0;

  /// Throws std::invalid_argument on non-finite or out-of-range values,
  /// including a binary_skew past (kLatestEdgeFrac - kNominalEdgeFrac)/fs
  /// = 0.325/fs, where the walk would clamp the binary edges.
  void validate() const;
};

}  // namespace csdac::dac

namespace csdac::runtime {

/// Version tag hashed into every cache key. Bump whenever ANY numeric
/// behavior of a job changes (kernel arithmetic, RNG streams, defaults
/// that leak into results): stale entries then miss naturally instead of
/// serving results the current code would not reproduce.
inline constexpr std::string_view kEngineVersion = "csdac-engine/4";

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

// --- Job inputs ------------------------------------------------------------
//
// Params<T> is a job's (or a nested input struct's) one input list:
// each(j, f) calls f(wire_name, member[, rule]) per member in key order.
// job_key writes it; serve::parse_job reads a request through it, so a
// rule's bounds may read members listed before it. Changing a list
// re-keys every job that lists it: bump kEngineVersion with it.
template <typename T>
struct Params;

/// Inclusive wire bounds. `def`, when set, is the default of an absent
/// field instead of the member's own value.
struct In {
  double lo;
  double hi;
  std::optional<double> def = {};
};
/// The wire default of `seed` (the struct default is 0).
struct Seed {
  std::int64_t def;
};
/// `sigma_unit`, or `sigma_mult` (default `mult`) times the eq. 1 unit
/// sigma of `spec`.
struct Sigma {
  double mult;
  const core::DacSpec& spec;
};
/// In the key, never on the wire (set by a request alias).
struct KeyOnly {};

// Abuse ceilings for count-like job fields. Generous for real use (the
// paper's studies run ~1e3 chips and 40-step axes) but small enough that
// a hostile request cannot size an unbounded allocation or loop.
inline constexpr std::int64_t kMaxChips = 10'000'000;
inline constexpr std::int64_t kMaxAxisSteps = 2048;
inline constexpr std::int64_t kMaxSamples = 1 << 22;
inline constexpr std::int64_t kMaxStrata = 4096;
inline constexpr std::int64_t kMaxIsModes = 64;
inline constexpr double kMaxSigmaScale = 8.0;
// Arch jobs synthesize oversampled waveforms (n_samples * oversample
// points each), so their ceilings are much tighter than the static MC's.
inline constexpr std::int64_t kMaxDynChips = 4096;
inline constexpr std::int64_t kMaxArchChips = 10'000;
inline constexpr std::int64_t kMaxDynSamples = 1 << 14;
inline constexpr std::int64_t kMaxWavePoints = 1 << 20;
inline constexpr std::int64_t kMaxArchBits = 14;
// SPICE-in-the-loop MC solves 2^nbits MNA systems per corner, so both the
// resolution and the corner count get much tighter ceilings than the
// behavioral MC paths.
inline constexpr std::int64_t kMaxSpiceBits = 8;
inline constexpr std::int64_t kMaxSpiceChips = 64;

template <typename E>
struct Named {
  std::string_view name;
  E value;
};

/// Wire names of the enums a request spells by name. An absent field
/// keeps the member's value.
template <typename E>
inline constexpr std::array<Named<E>, 0> kEnumNames{};
template <>
inline constexpr std::array<Named<dac::InlReference>, 2>
    kEnumNames<dac::InlReference>{{{"endpoint", dac::InlReference::kEndpoint},
                                   {"bestfit", dac::InlReference::kBestFit}}};
template <>
inline constexpr std::array<Named<core::MarginPolicy>, 3>
    kEnumNames<core::MarginPolicy>{{
        {"none", core::MarginPolicy::kNone},
        {"fixed", core::MarginPolicy::kFixedMargin},
        {"statistical", core::MarginPolicy::kStatistical},
    }};
template <>
inline constexpr std::array<Named<core::SigmaAggregation>, 2>
    kEnumNames<core::SigmaAggregation>{{{"max", core::SigmaAggregation::kMax},
                                        {"rss", core::SigmaAggregation::kRss}}};
template <>
inline constexpr std::array<Named<arch::WeightingKind>, 4>
    kEnumNames<arch::WeightingKind>{{
        {"binary", arch::WeightingKind::kBinary},
        {"unary", arch::WeightingKind::kUnary},
        {"segmented", arch::WeightingKind::kSegmented},
        {"optimized", arch::WeightingKind::kOptimized},
    }};

/// `tech` presets by wire name (their NMOS device); the first is the
/// default.
inline constexpr std::array<Named<tech::TechParams (*)()>, 2> kTechPresets{{
    {"generic_035um", &tech::generic_035um},
    {"generic_025um", &tech::generic_025um},
}};

template <>
struct Params<core::DacSpec> {
  static void each(auto& s, auto&& f) {
    f("nbits", s.nbits);
    f("binary_bits", s.binary_bits);
    f("vdd", s.vdd);
    f("v_swing", s.v_swing);
    f("v_out_min", s.v_out_min);
    f("r_load", s.r_load);
    f("c_load", s.c_load);
    f("c_int", s.c_int);
    f("inl_yield", s.inl_yield);
    f("r_load_tol", s.r_load_tol);
  }
};

template <>
struct Params<tech::MosTechParams> {
  static void each(auto& t, auto&& f) {
    f("type", t.type);
    f("kp", t.kp);
    f("vt0", t.vt0);
    f("lambda_l", t.lambda_l);
    f("gamma", t.gamma);
    f("phi_2f", t.phi_2f);
    f("cox", t.cox);
    f("cgso", t.cgso);
    f("cgdo", t.cgdo);
    f("cj", t.cj);
    f("cjsw", t.cjsw);
    f("l_diff", t.l_diff);
    f("a_vt", t.a_vt);
    f("a_beta", t.a_beta);
    f("l_min", t.l_min);
    f("w_min", t.w_min);
  }
};

template <>
struct Params<core::GridAxis> {
  /// CellSizer's overdrive domain 0 < vod < 3 V, as inclusive bounds.
  static constexpr double kVodMin = 0x1p-1074;
  static constexpr double kVodMax = 0x1.7ffffffffffffp+1;
  static void each(auto& a, auto&& f) {
    f("lo", a.lo, In{kVodMin, kVodMax});
    f("hi", a.hi, In{a.lo, kVodMax});
    f("steps", a.steps, In{1, kMaxAxisSteps});
  }
};

template <>
struct Params<dac::CalibrationOptions> {
  static void each(auto& c, auto&& f) {
    f("range_lsb", c.range_lsb);
    f("bits", c.bits, In{1, 20});
    f("noise_lsb", c.measure_noise_lsb);
  }
};

template <>
struct Params<dac::DynamicParams> {
  static void each(auto& d, auto&& f) {
    f("fs", d.fs, In{1.0, 1e12});
    f("oversample", d.oversample, In{2, 256});
    f("tau", d.tau, In{1e-15, 1.0});
    f("rout_unit", d.rout_unit, In{1e-3, 1e18});
    f("binary_skew", d.binary_skew, In{0.0, 1.0});
    f("jitter_sigma", d.jitter_sigma, In{0.0, 1.0});
    f("feedthrough_lsb", d.feedthrough_lsb, In{-1e3, 1e3});
  }
};

template <>
struct Params<arch::TimingParams> {
  static void each(auto& t, auto&& f) {
    f("fs", t.fs, In{1.0, 1e12});
    f("oversample", t.oversample, In{2, 256});
    f("tau", t.tau, In{1e-15, 1.0});
    f("sigma_t", t.sigma_t, In{0.0, 1.0});
    f("asym_sigma", t.asym_sigma, In{0.0, 1.0});
  }
};

// --- Jobs ------------------------------------------------------------------
//
// Every job names its kind, its wire name and its result type, and lists
// its inputs in Params. Adding a kind: README "Typed jobs".

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

template <>
struct Params<InlYieldJob> {
  static void each(auto& j, auto&& f) {
    f("spec", j.spec);
    f("sigma_unit", j.sigma_unit, Sigma{1.0, j.spec});
    f("chips", j.chips, In{1, kMaxChips});
    f("seed", j.seed, Seed{1000});
    f("limit", j.limit);
    f("ref", j.ref);
    f("dnl", j.dnl, KeyOnly{});  // the "dnl_yield" alias
    f("adaptive", j.adaptive);
    f("min_chips", j.min_chips, In{1, kMaxChips});
    f("batch", j.batch, In{1, kMaxChips});
    f("ci_half_width", j.ci_half_width, In{0.0, 1.0});
  }
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

template <>
struct Params<CalYieldJob> {
  static void each(auto& j, auto&& f) {
    f("spec", j.spec);
    f("sigma_unit", j.sigma_unit, Sigma{1.0, j.spec});
    f("cal_", j.cal);
    f("chips", j.chips, In{1, kMaxChips});
    f("seed", j.seed, Seed{1000});
    f("limit", j.limit);
  }
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

template <>
struct Params<SweepBasicJob> {
  static void each(auto& j, auto&& f) {
    f("spec", j.spec);
    f("tech", j.tech);
    f("cs", j.cs);
    f("sw", j.sw);
    f("policy", j.policy);
    f("fixed_margin", j.fixed_margin, In{0.0, HUGE_VAL});
  }
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

template <>
struct Params<SweepCascodeJob> {
  static void each(auto& j, auto&& f) {
    f("spec", j.spec);
    f("tech", j.tech);
    f("cs", j.cs);
    f("sw", j.sw);
    f("cas", j.cas);
    f("policy", j.policy);
    f("fixed_margin", j.fixed_margin, In{0.0, HUGE_VAL});
    f("agg", j.agg);
  }
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

template <>
struct Params<SpectrumJob> {
  static void each(auto& j, auto&& f) {
    f("spec", j.spec);
    // Spectrum questions default to the mismatch-free converter.
    f("sigma_unit", j.sigma_unit, Sigma{0.0, j.spec});
    f("seed", j.seed, Seed{2003});
    f("", j.dyn);
    f("n_samples", j.n_samples, In{8, kMaxSamples});
    f("cycles", j.cycles, In{1, kMaxSamples});
    f("differential", j.differential);
  }
};

/// A spectrum job's converter on the record walk: the segmented cell array
/// of `spec` (thermometer cells, then binary cells) carrying one chip's
/// source draw, droop r_load / rout_unit, the feedthrough kick on the
/// thermometer cells, the rails of `differential`, and a cell timing in
/// which the binary cells fire binary_skew late.  Jitter is per record
/// (arch::draw_period_jitter).  Throws std::invalid_argument on a bad
/// spec or dyn, or a source draw that does not fit the spec.
struct SpectrumConverter {
  arch::ArchSimulator sim;
  arch::CellTiming timing;
};
SpectrumConverter spectrum_converter(const core::DacSpec& spec,
                                     const dac::SourceErrors& chip,
                                     const dac::DynamicParams& dyn,
                                     bool differential);

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

template <>
struct Params<InlYieldIsJob> {
  static void each(auto& j, auto&& f) {
    f("spec", j.spec);
    f("sigma_unit", j.sigma_unit, Sigma{1.0, j.spec});
    f("sigma_scale", j.sigma_scale, In{1.0, kMaxSigmaScale});
    f("modes", j.modes, In{1, kMaxIsModes});
    f("chips", j.chips, In{1, kMaxChips});
    f("seed", j.seed, Seed{1000});
    f("limit", j.limit);
    f("ref", j.ref);
  }
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

template <>
struct Params<InlYieldStratJob> {
  static void each(auto& j, auto&& f) {
    f("spec", j.spec);
    f("sigma_unit", j.sigma_unit, Sigma{1.0, j.spec});
    f("strata", j.strata, In{1, kMaxStrata});
    f("chips", j.chips, In{2, kMaxChips});
    f("seed", j.seed, Seed{1000});
    f("limit", j.limit);
    f("ref", j.ref);
  }
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

template <>
struct Params<InlYieldBridgeJob> {
  static void each(auto& j, auto&& f) {
    f("spec", j.spec);
    f("sigma_unit", j.sigma_unit, Sigma{1.0, j.spec});
    f("limit", j.limit);
  }
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

template <>
struct Params<DynSpectrumJob> {
  static void each(auto& j, auto&& f) {
    f("spec", j.spec);
    f("scheme", j.scheme);
    f("scheme_param", j.scheme_param,
      In{0, std::ldexp(1.0, j.spec.nbits) - 1});
    f("", j.timing);
    f("n_samples", j.n_samples, In{32, kMaxDynSamples});
    // The fundamental stays strictly inside the first Nyquist zone.
    f("cycles", j.cycles, In{1, j.n_samples / 2 - 1.0});
    f("sfdr_limit_db", j.sfdr_limit_db, In{0.0, 200.0});
    f("chips", j.chips, In{1, kMaxDynChips});
    f("seed", j.seed, Seed{1000});
    f("adaptive", j.adaptive);
    f("min_chips", j.min_chips, In{1, kMaxDynChips});
    f("batch", j.batch, In{1, kMaxDynChips});
    f("ci_half_width", j.ci_half_width, In{0.0, 1.0});
  }
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

template <>
struct Params<ArchCompareJob> {
  static void each(auto& j, auto&& f) {
    f("spec", j.spec);
    f("sigma_unit", j.sigma_unit, Sigma{1.0, j.spec});
    f("", j.timing);
    f("n_samples", j.n_samples, In{32, kMaxDynSamples});
    f("cycles", j.cycles, In{1, j.n_samples / 2 - 1.0});
    f("chips", j.chips, In{1, kMaxArchChips});
    f("dyn_chips", j.dyn_chips, In{1, 64});
    f("seed", j.seed, Seed{1000});
    f("limit", j.limit, In{1e-6, 1e3});
    f("seg_lo", j.seg_lo, In{1, j.spec.nbits - 1.0});
    f("seg_hi", j.seg_hi,
      In{1, j.spec.nbits - 1.0, std::min(j.seg_hi, j.spec.nbits - 1)});
    f("include_unary", j.include_unary);
    f("opt_cells", j.opt_cells, In{0, std::ldexp(1.0, j.spec.nbits) - 1});
  }
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

template <>
struct Params<SpiceMcJob> {
  static void each(auto& j, auto&& f) {
    f("spec", j.spec);
    f("tech", j.tech);
    f("vod_cs", j.vod_cs, In{0.01, 2.0});
    f("vod_sw", j.vod_sw, In{0.01, 2.0});
    f("vod_cas", j.vod_cas, In{0.01, 2.0});
    f("cascode", j.cascode);
    f("chips", j.chips, In{1, kMaxSpiceChips});
    f("seed", j.seed, Seed{1000});
    f("limit", j.limit, In{1e-6, 1e3});
    f("sigma_scale", j.sigma_scale, In{0.0, kMaxSigmaScale});
    f("differential", j.differential);
    f("with_caps", j.with_caps);
  }
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

/// The job's cache key: hash128 of the engine version, the kind byte and
/// the job's Params list.
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
