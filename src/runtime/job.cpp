#include "runtime/job.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "arch/ete.hpp"
#include "arch/instruments.hpp"
#include "dac/dac_model.hpp"
#include "dac/spectrum.hpp"
#include "mathx/rng.hpp"

namespace csdac::dac {

void DynamicParams::validate() const {
  // isfinite matters: +inf passes every one-sided `> 0` test but produces
  // NaN waveforms downstream, and JSON requests can smuggle it in (1e999
  // parses to +inf).
  if (!std::isfinite(fs) || !(fs > 0.0) || oversample < 2 ||
      !std::isfinite(tau) || !(tau > 0.0) || !std::isfinite(rout_unit) ||
      !(rout_unit > 0.0) || !std::isfinite(binary_skew) ||
      !(binary_skew >= 0.0) || !std::isfinite(jitter_sigma) ||
      !(jitter_sigma >= 0.0) || !std::isfinite(feedthrough_lsb)) {
    throw std::invalid_argument("DynamicParams: bad values");
  }
  if (binary_skew > (arch::kLatestEdgeFrac - arch::kNominalEdgeFrac) / fs) {
    throw std::invalid_argument(
        "DynamicParams: binary_skew must be <= 0.325/fs (later binary "
        "edges are clamped)");
  }
}

}  // namespace csdac::dac

namespace csdac::runtime {

namespace {

// One fixed-width writer for a job's Params (the key) and a result's Fields
// (the cache payload, led by its schema byte): an enum as its u8 value, a
// nested input struct as its own list, a vector as a u32 count plus its
// elements. Params rules are wire-only and ignored here.
struct Writer {
  mathx::ByteWriter& w;
  void operator()(std::string_view, std::uint8_t v) { w.u8(v); }
  void operator()(std::string_view, bool v, auto&&...) { w.boolean(v); }
  void operator()(std::string_view, std::int32_t v, auto&&...) { w.i32(v); }
  void operator()(std::string_view, std::int64_t v) { w.i64(v); }
  void operator()(std::string_view, std::uint64_t v, auto&&...) { w.u64(v); }
  void operator()(std::string_view, double v, auto&&...) { w.f64(v); }
  template <typename E>
    requires std::is_enum_v<E>
  void operator()(std::string_view, E v) {
    w.u8(static_cast<std::uint8_t>(v));
  }
  template <typename T>
  void operator()(std::string_view, const std::vector<T>& v) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const T& e : v) Fields<T>::each(e, *this);
  }
  template <typename T>
    requires std::is_class_v<T>
  void operator()(std::string_view, const T& v) {
    Params<T>::each(v, *this);
  }
};

/// Encoded bytes of one element: the sum of its fixed-width fields.
template <typename T>
std::size_t encoded_size() {
  std::size_t n = 0;
  const T probe{};
  Fields<T>::each(probe, [&n](std::string_view, auto x) { n += sizeof(x); });
  return n;
}

struct FieldReader {
  mathx::ByteReader& r;
  bool ok = true;  ///< false once a count failed its bound
  void operator()(std::string_view, std::uint8_t& v) { v = r.u8(); }
  void operator()(std::string_view, bool& v) { v = r.boolean(); }
  void operator()(std::string_view, std::int32_t& v) { v = r.i32(); }
  void operator()(std::string_view, std::int64_t& v) { v = r.i64(); }
  void operator()(std::string_view, double& v) { v = r.f64(); }
  template <typename T>
  void operator()(std::string_view, std::vector<T>& v) {
    const std::uint32_t n = r.u32();
    // Reject a count the remaining bytes cannot hold before allocating.
    if (n > r.remaining() / encoded_size<T>()) {
      ok = false;
      return;
    }
    v.resize(n);
    for (T& e : v) Fields<T>::each(e, *this);
  }
};

template <typename R>
bool decode_as(mathx::ByteReader& r, JobValue& out) {
  if (r.u8() != Fields<R>::kSchema) return false;
  R v;
  FieldReader fr{r};
  Fields<R>::each(v, fr);
  if (!fr.ok || !r.done()) return false;
  out = std::move(v);
  return true;
}

/// One row per kind, indexed by JobKind - 1: the wire name and the
/// decoder of the kind's result type.
struct KindRow {
  std::string_view name;
  bool (*decode)(mathx::ByteReader&, JobValue&);
};

template <std::size_t I>
using KindJob = std::variant_alternative_t<I, Job>;

constexpr auto kKindTable = []<std::size_t... I>(std::index_sequence<I...>) {
  return std::array<KindRow, kNumKinds>{
      KindRow{KindJob<I>::kName, &decode_as<typename KindJob<I>::Result>}...};
}(std::make_index_sequence<kNumKinds>{});

}  // namespace

mathx::HashKey128 job_key(const Job& job) {
  mathx::ByteWriter w;
  w.str(kEngineVersion);
  w.u8(static_cast<std::uint8_t>(job_kind(job)));
  std::visit(
      [&w](const auto& j) {
        Params<std::decay_t<decltype(j)>>::each(j, Writer{w});
      },
      job);
  return w.hash();
}

std::string_view kind_name(JobKind kind) {
  const auto i = static_cast<std::size_t>(kind) - 1;
  return i < kNumKinds ? kKindTable[i].name : "unknown";
}

void encode_value(const JobValue& value, mathx::ByteWriter& w) {
  std::visit(
      [&w](const auto& v) {
        using F = Fields<std::decay_t<decltype(v)>>;
        w.u8(F::kSchema);
        F::each(v, Writer{w});
      },
      value);
}

bool decode_value(JobKind kind, mathx::ByteReader& r, JobValue& out) {
  const auto i = static_cast<std::size_t>(kind) - 1;
  return i < kNumKinds && kKindTable[i].decode(r, out);
}

namespace {

YieldResult run(const InlYieldJob& j, int threads, mathx::RunStats* stats) {
  dac::YieldEstimate y;
  if (j.adaptive) {
    dac::AdaptiveMcOptions o;
    o.max_chips = j.chips;
    o.min_chips = j.min_chips;
    o.batch = j.batch;
    o.ci_half_width = j.ci_half_width;
    o.threads = threads;
    y = j.dnl ? dac::dnl_yield_mc_adaptive(j.spec, j.sigma_unit, o, j.seed,
                                           j.limit)
              : dac::inl_yield_mc_adaptive(j.spec, j.sigma_unit, o, j.seed,
                                           j.limit, j.ref);
  } else {
    y = j.dnl ? dac::dnl_yield_mc(j.spec, j.sigma_unit, j.chips, j.seed,
                                  j.limit, threads)
              : dac::inl_yield_mc(j.spec, j.sigma_unit, j.chips, j.seed,
                                  j.limit, j.ref, threads);
  }
  if (stats) *stats = y.stats;
  return {.chips = y.chips, .pass = y.pass, .yield = y.yield, .ci95 = y.ci95};
}

CalYieldResult run(const CalYieldJob& j, int threads,
                   mathx::RunStats* stats) {
  const dac::CalibratedYield y = dac::calibration_yield_mc(
      j.spec, j.sigma_unit, j.cal, j.chips, j.seed, j.limit, threads);
  if (stats) *stats = y.stats;
  return {.chips = y.chips,
          .yield_before = y.yield_before,
          .yield_after = y.yield_after};
}

SweepResult run(const SweepBasicJob& j, int threads, mathx::RunStats* stats) {
  const core::DesignSpaceExplorer ex(core::CellSizer(j.tech, j.spec));
  return {ex.sweep_basic(j.cs, j.sw, j.policy, j.fixed_margin, threads,
                         stats)};
}

SweepResult run(const SweepCascodeJob& j, int threads,
                mathx::RunStats* stats) {
  const core::DesignSpaceExplorer ex(core::CellSizer(j.tech, j.spec));
  return {ex.sweep_cascode(j.cs, j.sw, j.cas, j.policy, j.fixed_margin,
                           j.agg, threads, stats)};
}

SpectrumSummary run(const SpectrumJob& j, int threads,
                    mathx::RunStats* stats) {
  (void)threads;  // waveform synthesis is inherently sequential
  j.spec.validate();
  // sigma_unit 0 draws the ideal sources exactly.
  mathx::Xoshiro256 rng = mathx::stream_rng(j.seed, 0);
  const SpectrumConverter conv = spectrum_converter(
      j.spec, dac::draw_source_errors(j.spec, j.sigma_unit, rng), j.dyn,
      j.differential);
  const arch::CodeRecord record(
      conv.sim.array(), dac::sine_codes(j.spec, j.n_samples, j.cycles));
  std::vector<double> jitter;
  if (j.dyn.jitter_sigma > 0.0) {
    rng = mathx::stream_rng(j.seed, 1);
    jitter = arch::draw_period_jitter(record.size(), j.dyn.jitter_sigma, rng);
  }
  // The settled value at the end of each sample period, as the Fig. 8
  // bench analyzes it.
  const std::vector<double> sampled =
      conv.sim.period_end_samples(record, conv.timing, jitter);
  std::vector<double> bin_power;
  const dac::SpectrumMetrics s =
      dac::spectrum_metrics(sampled, j.dyn.fs, {}, 0, bin_power);
  if (stats) {
    stats->evaluated = static_cast<std::int64_t>(sampled.size());
    stats->threads = 1;
  }
  return {.sfdr_db = s.sfdr_db,
          .sndr_db = s.sndr_db,
          .thd_db = s.thd_db,
          .enob = s.enob};
}

IsYieldResult run(const InlYieldIsJob& j, int threads,
                  mathx::RunStats* stats) {
  const dac::IsYieldEstimate y =
      dac::inl_yield_is(j.spec, j.sigma_unit, j.sigma_scale, j.modes, j.chips,
                        j.seed, j.limit, j.ref, threads);
  if (stats) *stats = y.stats;
  return {.chips = y.chips,
          .fails = y.fails,
          .yield = y.yield,
          .ci95 = y.ci95,
          .ess = y.ess,
          .ess_fraction = y.ess_fraction,
          .log_weight_max = y.log_weight_max,
          .log_weight_min = y.log_weight_min,
          .low_ess = y.low_ess};
}

StratYieldResult run(const InlYieldStratJob& j, int threads,
                     mathx::RunStats* stats) {
  const dac::StratYieldEstimate y = dac::inl_yield_stratified(
      j.spec, j.sigma_unit, j.strata, j.chips, j.seed, j.limit, j.ref,
      threads);
  if (stats) *stats = y.stats;
  return {.chips = y.chips,
          .pairs = y.pairs,
          .strata = y.strata,
          .yield = y.yield,
          .ci95 = y.ci95};
}

BridgeYieldResult run(const InlYieldBridgeJob& j, int threads,
                      mathx::RunStats* stats) {
  (void)threads;  // closed form; nothing to parallelize
  const dac::BridgeYieldEstimate y =
      dac::inl_yield_bridge(j.spec, j.sigma_unit, j.limit);
  if (stats) {
    stats->evaluated = 0;  // no chips drawn: that is the whole point
    stats->threads = 1;
  }
  return {.yield = y.yield, .c = y.c, .sigma_inl = y.sigma_inl};
}

/// Resolves the scheme-param defaults against the spec: segmented 0 means
/// the spec's own binary split (all unit cells for a fully thermometer
/// spec); optimized 0 means "same cell count as the spec's segmented
/// architecture" so comparisons stay cell- and area-matched.
arch::WeightingScheme resolve_weighting(const core::DacSpec& spec,
                                        arch::WeightingKind kind, int param) {
  int p = param;
  if (kind == arch::WeightingKind::kSegmented && p == 0) {
    if (spec.binary_bits == 0) {
      // make_weighting would read split 0 as its nbits/3 default.
      arch::WeightingScheme s =
          arch::make_weighting(arch::WeightingKind::kUnary, spec.nbits, 0);
      s.kind = arch::WeightingKind::kSegmented;
      return s;
    }
    p = spec.binary_bits;
  }
  if (kind == arch::WeightingKind::kOptimized && p == 0) {
    const int b = spec.binary_bits;
    p = ((1 << (spec.nbits - b)) - 1) + b;
  }
  if ((kind == arch::WeightingKind::kBinary ||
       kind == arch::WeightingKind::kUnary) &&
      p != 0) {
    throw std::invalid_argument("weighting scheme takes no parameter");
  }
  return arch::make_weighting(kind, spec.nbits, p);
}

void check_record_shape(int n_samples, int cycles) {
  if (n_samples < 32 || cycles < 1 || cycles >= n_samples / 2) {
    throw std::invalid_argument("arch job: bad record shape");
  }
}

DynSpectrumResult run(const DynSpectrumJob& j, int threads,
                      mathx::RunStats* stats) {
  j.spec.validate();
  j.timing.validate();
  check_record_shape(j.n_samples, j.cycles);
  if (j.chips < 1 || (j.adaptive && (j.min_chips < 1 || j.batch < 1))) {
    throw std::invalid_argument("dyn_spectrum job: bad chip counts");
  }
  const arch::CellArray arr(
      resolve_weighting(j.spec, j.scheme, j.scheme_param));
  const double v_lsb = j.spec.i_lsb() * j.spec.r_load;
  const arch::ArchSimulator sim(arr, j.timing, v_lsb);
  // Built once: every chip walks the same codes and switch ranges.
  const arch::CodeRecord record(
      arr, dac::sine_codes(j.spec, j.n_samples, j.cycles));

  // Per-chip metrics land in index-addressed slots, so the means below are
  // reduced sequentially in chip order — bit-identical for any thread
  // count, like every other cached job.
  std::vector<double> sfdr(static_cast<std::size_t>(j.chips), 0.0);
  std::vector<double> sndr(static_cast<std::size_t>(j.chips), 0.0);
  std::vector<double> ete(static_cast<std::size_t>(j.chips), 0.0);
  // One chip per block (block = 1): chip i is the block [i, i + 1).
  const auto chip = [&](int, std::int64_t i, std::int64_t) -> std::int64_t {
    mathx::Xoshiro256 rng =
        mathx::stream_rng(j.seed, static_cast<std::uint64_t>(i));
    const arch::CellTiming t =
        arch::draw_cell_timing(arr.cells(), j.timing, rng);
    const dac::SpectrumMetrics s = sim.spectrum(record, t, j.cycles);
    const arch::EtePrediction p =
        arch::ete_predict(arr, t, v_lsb, j.timing.fs, record, j.cycles);
    const auto slot = static_cast<std::size_t>(i);
    sfdr[slot] = s.sfdr_db;
    sndr[slot] = s.sndr_db;
    ete[slot] = p.sfdr_db;
    return s.sfdr_db >= j.sfdr_limit_db ? 1 : 0;
  };
  mathx::EarlyStopOptions o;
  o.max_items = j.chips;
  o.min_items = j.adaptive
                    ? std::min<std::int64_t>(j.min_chips, j.chips)
                    : j.chips;
  o.batch = j.adaptive ? j.batch : j.chips;
  o.ci_half_width = j.adaptive ? j.ci_half_width : 0.0;
  const mathx::YieldRun y = mathx::run_blocks(o, threads, /*block=*/1, chip);
  dac::detail::count_chip_evals(y.evaluated);

  DynSpectrumResult r;
  r.chips = y.evaluated;
  r.pass = y.passed;
  r.yield = y.yield;
  r.ci95 = y.ci95;
  r.cells = arr.cells();
  r.sfdr_min_db = sfdr[0];
  double sfdr_sum = 0.0, sndr_sum = 0.0, ete_sum = 0.0;
  for (std::int64_t i = 0; i < y.evaluated; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    sfdr_sum += sfdr[slot];
    sndr_sum += sndr[slot];
    ete_sum += ete[slot];
    r.sfdr_min_db = std::min(r.sfdr_min_db, sfdr[slot]);
  }
  const double denom = static_cast<double>(y.evaluated);
  r.sfdr_mean_db = sfdr_sum / denom;
  r.sndr_mean_db = sndr_sum / denom;
  r.ete_sfdr_mean_db = ete_sum / denom;
  if (stats) *stats = y.stats;

  auto& m = arch::arch_instruments();
  m.dyn_runs.add(1);
  m.last_sfdr_db.set(r.sfdr_mean_db);
  m.last_yield.set(r.yield);
  return r;
}

ArchCompareResult run(const ArchCompareJob& j, int threads,
                      mathx::RunStats* stats) {
  j.spec.validate();
  j.timing.validate();
  check_record_shape(j.n_samples, j.cycles);
  if (j.chips < 1 || j.dyn_chips < 1) {
    throw std::invalid_argument("arch_compare job: bad chip counts");
  }
  if (!std::isfinite(j.sigma_unit) || j.sigma_unit < 0.0) {
    throw std::invalid_argument("arch_compare job: bad sigma_unit");
  }
  if (j.seg_lo < 1 || j.seg_hi < j.seg_lo || j.seg_hi >= j.spec.nbits) {
    throw std::invalid_argument("arch_compare job: bad segment range");
  }

  std::vector<arch::WeightingScheme> schemes;
  schemes.push_back(arch::make_weighting(arch::WeightingKind::kBinary,
                                         j.spec.nbits));
  if (j.include_unary) {
    schemes.push_back(arch::make_weighting(arch::WeightingKind::kUnary,
                                           j.spec.nbits));
  }
  for (int b = j.seg_lo; b <= j.seg_hi; ++b) {
    schemes.push_back(arch::make_weighting(arch::WeightingKind::kSegmented,
                                           j.spec.nbits, b));
  }
  schemes.push_back(resolve_weighting(j.spec, arch::WeightingKind::kOptimized,
                                      j.opt_cells));

  const std::vector<int> codes =
      dac::sine_codes(j.spec, j.n_samples, j.cycles);
  const double v_lsb = j.spec.i_lsb() * j.spec.r_load;
  const int total_units = (1 << j.spec.nbits) - 1;
  const int n_codes = 1 << j.spec.nbits;

  ArchCompareResult res;
  std::int64_t total_evals = 0;
  int run_threads = 1;
  for (std::size_t a = 0; a < schemes.size(); ++a) {
    const arch::CellArray arr(schemes[a]);
    ArchPoint p;
    p.scheme = static_cast<std::uint8_t>(arr.scheme().kind);
    p.param = arr.scheme().param;
    p.cells = arr.cells();
    p.activity = arch::switching_activity(arr, codes);

    // Cell c spans the unit interval [offset[c], offset[c+1]) of a shared
    // per-chip unit-error pool: every architecture sees the SAME wafer
    // (common random numbers), so yield differences between schemes are
    // not resampling noise.
    const auto& w = arr.weights();
    std::vector<int> offset(w.size() + 1, 0);
    for (std::size_t c = 0; c < w.size(); ++c) offset[c + 1] = offset[c] + w[c];

    struct Ws {
      std::vector<double> prefix;
      std::vector<double> term;
      std::vector<double> head;
      std::vector<double> levels;
    };
    const mathx::YieldRun run = mathx::run_blocks(
        {.max_items = j.chips, .batch = j.chips}, threads, /*block=*/1,
        [&] {
          Ws ws;
          ws.prefix.resize(static_cast<std::size_t>(total_units) + 1);
          ws.term.resize(w.size());
          ws.levels.resize(static_cast<std::size_t>(n_codes));
          return ws;
        },
        [&](Ws& ws, std::int64_t chip, std::int64_t) -> std::int64_t {
          mathx::Xoshiro256 rng =
              mathx::stream_rng(j.seed, static_cast<std::uint64_t>(chip));
          ws.prefix[0] = 0.0;
          for (int u = 0; u < total_units; ++u) {
            ws.prefix[static_cast<std::size_t>(u) + 1] =
                ws.prefix[static_cast<std::size_t>(u)] +
                j.sigma_unit * mathx::normal(rng);
          }
          // Cell c's current: its weight plus its units' summed error.
          for (std::size_t c = 0; c < w.size(); ++c) {
            ws.term[c] =
                w[c] + (ws.prefix[static_cast<std::size_t>(offset[c + 1])] -
                        ws.prefix[static_cast<std::size_t>(offset[c])]);
          }
          arr.transfer(ws.term, ws.head, ws.levels);
          const dac::StaticSummary s = dac::analyze_levels_summary(
              ws.levels, dac::InlReference::kBestFit);
          dac::detail::count_chip_eval();
          return s.inl_max < j.limit ? 1 : 0;
        });
    run_threads = std::max(run_threads, run.stats.threads);
    total_evals += j.chips;
    p.inl_yield = run.yield;
    p.inl_ci95 = run.ci95;

    // Timing MC on a distinct stream lane (per-architecture cell counts
    // differ, so timing draws cannot be shared across schemes).
    const arch::ArchSimulator sim(arr, j.timing, v_lsb);
    const arch::CodeRecord record(arr, codes);
    double sfdr_sum = 0.0, ete_sum = 0.0;
    for (int d = 0; d < j.dyn_chips; ++d) {
      mathx::Xoshiro256 rng = mathx::stream_rng(
          j.seed ^ 0x74696d696e67ULL,
          (static_cast<std::uint64_t>(a) << 32) |
              static_cast<std::uint64_t>(d));
      const arch::CellTiming t =
          arch::draw_cell_timing(arr.cells(), j.timing, rng);
      sfdr_sum += sim.spectrum(record, t, j.cycles).sfdr_db;
      ete_sum +=
          arch::ete_predict(arr, t, v_lsb, j.timing.fs, record, j.cycles)
              .sfdr_db;
    }
    p.sfdr_db = sfdr_sum / j.dyn_chips;
    p.ete_sfdr_db = ete_sum / j.dyn_chips;
    total_evals += j.dyn_chips;
    res.points.push_back(p);
  }
  if (stats) {
    stats->evaluated = total_evals;
    stats->threads = run_threads;
  }
  arch::arch_instruments().compare_runs.add(1);
  return res;
}

SpiceMcResult run(const SpiceMcJob& j, int threads, mathx::RunStats* stats) {
  // Serial by design: the per-code symbolic-factorization reuse and
  // corner-to-corner warm starts are inherently sequential, and the result
  // must not depend on the thread count anyway.
  (void)threads;
  j.spec.validate();
  if (j.chips < 1) throw std::invalid_argument("spice_mc job: chips < 1");
  if (!std::isfinite(j.sigma_scale) || j.sigma_scale < 0.0) {
    throw std::invalid_argument("spice_mc job: bad sigma_scale");
  }
  const core::CellSizer sizer(j.tech, j.spec);
  const core::SizedCell cell =
      j.cascode ? sizer.size_cascode(j.vod_cs, j.vod_sw, j.vod_cas)
                : sizer.size_basic(j.vod_cs, j.vod_sw);
  dacgen::SpiceMcOptions o;
  o.chips = j.chips;
  o.seed = j.seed;
  o.limit = j.limit;
  o.sigma_scale = j.sigma_scale;
  o.differential = j.differential;
  o.with_caps = j.with_caps;
  const SpiceMcResult r = dacgen::spice_mismatch_mc(j.spec, cell, j.tech, o);
  if (stats) {
    stats->evaluated = r.chips;
    stats->threads = 1;
  }
  return r;
}

}  // namespace

SpectrumConverter spectrum_converter(const core::DacSpec& spec,
                                     const dac::SourceErrors& chip,
                                     const dac::DynamicParams& dyn,
                                     bool differential) {
  spec.validate();
  dyn.validate();
  const auto therm = static_cast<std::size_t>(spec.num_unary());
  if (chip.unary.size() != therm ||
      chip.binary.size() != static_cast<std::size_t>(spec.binary_bits)) {
    throw std::invalid_argument(
        "spectrum_converter: source draw does not fit the spec");
  }
  // The thermometer cells, then the binary cells by descending weight,
  // built here for every resolution the spec allows (make_weighting stops
  // at 16 bits, and reads a zero split as its default).
  arch::WeightingScheme scheme{arch::WeightingKind::kSegmented, spec.nbits,
                               spec.binary_bits,
                               std::vector<int>(therm, spec.unary_weight())};
  for (int k = spec.binary_bits - 1; k >= 0; --k) {
    scheme.weights.push_back(1 << k);
  }
  arch::CellArray arr(std::move(scheme));
  arch::OutputModel model;
  model.amplitude = chip.unary;
  model.amplitude.insert(model.amplitude.end(), chip.binary.rbegin(),
                         chip.binary.rend());
  model.droop = spec.r_load / dyn.rout_unit;
  model.feedthrough.assign(model.amplitude.size(), 0.0);
  std::fill_n(model.feedthrough.begin(), therm, dyn.feedthrough_lsb);
  model.differential = differential;
  arch::CellTiming timing = arch::ideal_cell_timing(arr.cells());
  std::fill(timing.dt.begin() + static_cast<std::ptrdiff_t>(therm),
            timing.dt.end(), dyn.binary_skew);
  return {arch::ArchSimulator(std::move(arr), {dyn.fs, dyn.oversample, dyn.tau},
                              spec.i_lsb() * spec.r_load, model),
          std::move(timing)};
}

JobValue execute_job(const Job& job, int threads, mathx::RunStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();
  JobValue value = std::visit(
      [&](const auto& j) -> JobValue {
        using J = std::decay_t<decltype(j)>;
        return typename J::Result(run(j, threads, stats));
      },
      job);
  // One clock for every kind: runners that never enter the parallel
  // engine (closed forms, serial solvers, sweeps of engine runs) would
  // otherwise report no wall time at all.
  if (stats) {
    stats->wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    stats->items_per_second =
        stats->wall_seconds > 0.0
            ? static_cast<double>(stats->evaluated) / stats->wall_seconds
            : 0.0;
  }
  return value;
}

}  // namespace csdac::runtime
