#include "runtime/job.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "arch/ete.hpp"
#include "arch/instruments.hpp"
#include "dac/dac_model.hpp"
#include "dac/spectrum.hpp"
#include "mathx/rng.hpp"

namespace csdac::runtime {

std::string_view kind_name(JobKind kind) {
  switch (kind) {
    case JobKind::kInlYield: return "inl_yield";
    case JobKind::kCalYield: return "cal_yield";
    case JobKind::kSweepBasic: return "sweep_basic";
    case JobKind::kSweepCascode: return "sweep_cascode";
    case JobKind::kSpectrum: return "spectrum";
    case JobKind::kInlYieldIs: return "inl_yield_is";
    case JobKind::kInlYieldStrat: return "inl_yield_strat";
    case JobKind::kInlYieldBridge: return "inl_yield_bridge";
    case JobKind::kDynSpectrum: return "dyn_spectrum";
    case JobKind::kArchCompare: return "arch_compare";
    case JobKind::kSpiceMc: return "spice_mc";
  }
  return "unknown";
}

JobKind job_kind(const Job& job) {
  return std::visit(
      [](const auto& j) -> JobKind {
        using T = std::decay_t<decltype(j)>;
        if constexpr (std::is_same_v<T, InlYieldJob>) return JobKind::kInlYield;
        if constexpr (std::is_same_v<T, CalYieldJob>) return JobKind::kCalYield;
        if constexpr (std::is_same_v<T, SweepBasicJob>) {
          return JobKind::kSweepBasic;
        }
        if constexpr (std::is_same_v<T, SweepCascodeJob>) {
          return JobKind::kSweepCascode;
        }
        if constexpr (std::is_same_v<T, SpectrumJob>) return JobKind::kSpectrum;
        if constexpr (std::is_same_v<T, InlYieldIsJob>) {
          return JobKind::kInlYieldIs;
        }
        if constexpr (std::is_same_v<T, InlYieldStratJob>) {
          return JobKind::kInlYieldStrat;
        }
        if constexpr (std::is_same_v<T, InlYieldBridgeJob>) {
          return JobKind::kInlYieldBridge;
        }
        if constexpr (std::is_same_v<T, DynSpectrumJob>) {
          return JobKind::kDynSpectrum;
        }
        if constexpr (std::is_same_v<T, ArchCompareJob>) {
          return JobKind::kArchCompare;
        }
        if constexpr (std::is_same_v<T, SpiceMcJob>) {
          return JobKind::kSpiceMc;
        }
      },
      job);
}

namespace {

// Canonical serialization of the shared parameter structs. Every
// result-determining field, in declaration order, fixed width — adding a
// field here (because it gained influence on results) is a key change for
// every job that embeds the struct, which is exactly right.

void put(const core::DacSpec& s, mathx::ByteWriter& w) {
  w.i32(s.nbits);
  w.i32(s.binary_bits);
  w.f64(s.vdd);
  w.f64(s.v_swing);
  w.f64(s.v_out_min);
  w.f64(s.r_load);
  w.f64(s.c_load);
  w.f64(s.c_int);
  w.f64(s.inl_yield);
  w.f64(s.r_load_tol);
}

void put(const tech::MosTechParams& t, mathx::ByteWriter& w) {
  w.u8(static_cast<std::uint8_t>(t.type));
  w.f64(t.kp);
  w.f64(t.vt0);
  w.f64(t.lambda_l);
  w.f64(t.gamma);
  w.f64(t.phi_2f);
  w.f64(t.cox);
  w.f64(t.cgso);
  w.f64(t.cgdo);
  w.f64(t.cj);
  w.f64(t.cjsw);
  w.f64(t.l_diff);
  w.f64(t.a_vt);
  w.f64(t.a_beta);
  w.f64(t.l_min);
  w.f64(t.w_min);
}

void put(const core::GridAxis& a, mathx::ByteWriter& w) {
  w.f64(a.lo);
  w.f64(a.hi);
  w.i32(a.steps);
}

void put(const dac::CalibrationOptions& c, mathx::ByteWriter& w) {
  w.f64(c.range_lsb);
  w.i32(c.bits);
  w.f64(c.measure_noise_lsb);
}

void put(const dac::DynamicParams& d, mathx::ByteWriter& w) {
  w.f64(d.fs);
  w.i32(d.oversample);
  w.f64(d.tau);
  w.f64(d.rout_unit);
  w.f64(d.binary_skew);
  w.f64(d.jitter_sigma);
  w.f64(d.feedthrough_lsb);
}

void put_params(const InlYieldJob& j, mathx::ByteWriter& w) {
  put(j.spec, w);
  w.f64(j.sigma_unit);
  w.i32(j.chips);
  w.u64(j.seed);
  w.f64(j.limit);
  w.u8(static_cast<std::uint8_t>(j.ref));
  w.boolean(j.dnl);
  w.boolean(j.adaptive);
  w.i32(j.min_chips);
  w.i32(j.batch);
  w.f64(j.ci_half_width);
}

void put_params(const CalYieldJob& j, mathx::ByteWriter& w) {
  put(j.spec, w);
  w.f64(j.sigma_unit);
  put(j.cal, w);
  w.i32(j.chips);
  w.u64(j.seed);
  w.f64(j.limit);
}

void put_params(const SweepBasicJob& j, mathx::ByteWriter& w) {
  put(j.spec, w);
  put(j.tech, w);
  put(j.cs, w);
  put(j.sw, w);
  w.u8(static_cast<std::uint8_t>(j.policy));
  w.f64(j.fixed_margin);
}

void put_params(const SweepCascodeJob& j, mathx::ByteWriter& w) {
  put(j.spec, w);
  put(j.tech, w);
  put(j.cs, w);
  put(j.sw, w);
  put(j.cas, w);
  w.u8(static_cast<std::uint8_t>(j.policy));
  w.f64(j.fixed_margin);
  w.u8(static_cast<std::uint8_t>(j.agg));
}

void put_params(const SpectrumJob& j, mathx::ByteWriter& w) {
  put(j.spec, w);
  w.f64(j.sigma_unit);
  w.u64(j.seed);
  put(j.dyn, w);
  w.i32(j.n_samples);
  w.i32(j.cycles);
  w.boolean(j.differential);
}

void put_params(const InlYieldIsJob& j, mathx::ByteWriter& w) {
  put(j.spec, w);
  w.f64(j.sigma_unit);
  w.f64(j.sigma_scale);
  w.i32(j.modes);
  w.i32(j.chips);
  w.u64(j.seed);
  w.f64(j.limit);
  w.u8(static_cast<std::uint8_t>(j.ref));
}

void put_params(const InlYieldStratJob& j, mathx::ByteWriter& w) {
  put(j.spec, w);
  w.f64(j.sigma_unit);
  w.i32(j.strata);
  w.i32(j.chips);
  w.u64(j.seed);
  w.f64(j.limit);
  w.u8(static_cast<std::uint8_t>(j.ref));
}

void put_params(const InlYieldBridgeJob& j, mathx::ByteWriter& w) {
  put(j.spec, w);
  w.f64(j.sigma_unit);
  w.f64(j.limit);
}

void put(const arch::TimingParams& t, mathx::ByteWriter& w) {
  w.f64(t.fs);
  w.i32(t.oversample);
  w.f64(t.tau);
  w.f64(t.sigma_t);
  w.f64(t.asym_sigma);
}

void put_params(const DynSpectrumJob& j, mathx::ByteWriter& w) {
  put(j.spec, w);
  w.u8(static_cast<std::uint8_t>(j.scheme));
  w.i32(j.scheme_param);
  put(j.timing, w);
  w.i32(j.n_samples);
  w.i32(j.cycles);
  w.f64(j.sfdr_limit_db);
  w.i32(j.chips);
  w.u64(j.seed);
  w.boolean(j.adaptive);
  w.i32(j.min_chips);
  w.i32(j.batch);
  w.f64(j.ci_half_width);
}

void put_params(const ArchCompareJob& j, mathx::ByteWriter& w) {
  put(j.spec, w);
  w.f64(j.sigma_unit);
  put(j.timing, w);
  w.i32(j.n_samples);
  w.i32(j.cycles);
  w.i32(j.chips);
  w.i32(j.dyn_chips);
  w.u64(j.seed);
  w.f64(j.limit);
  w.i32(j.seg_lo);
  w.i32(j.seg_hi);
  w.boolean(j.include_unary);
  w.i32(j.opt_cells);
}

void put_params(const SpiceMcJob& j, mathx::ByteWriter& w) {
  put(j.spec, w);
  put(j.tech, w);
  w.f64(j.vod_cs);
  w.f64(j.vod_sw);
  w.f64(j.vod_cas);
  w.boolean(j.cascode);
  w.i32(j.chips);
  w.u64(j.seed);
  w.f64(j.limit);
  w.f64(j.sigma_scale);
  w.boolean(j.differential);
  w.boolean(j.with_caps);
}

// Result payload codec. Each kind carries its own schema version so a
// result-format change invalidates only that kind's entries (the reader
// rejects, the caller recomputes and overwrites).
constexpr std::uint8_t kYieldResultV = 1;
constexpr std::uint8_t kCalResultV = 1;
constexpr std::uint8_t kSweepResultV = 1;
constexpr std::uint8_t kSpectrumResultV = 1;
constexpr std::uint8_t kIsResultV = 1;
constexpr std::uint8_t kStratResultV = 1;
constexpr std::uint8_t kBridgeResultV = 1;
constexpr std::uint8_t kDynSpectrumResultV = 1;
constexpr std::uint8_t kArchCompareResultV = 1;
constexpr std::uint8_t kSpiceMcResultV = 1;

}  // namespace

void canonical_inputs(const Job& job, mathx::ByteWriter& w) {
  w.str(kEngineVersion);
  w.u8(static_cast<std::uint8_t>(job_kind(job)));
  std::visit([&w](const auto& j) { put_params(j, w); }, job);
}

mathx::HashKey128 job_key(const Job& job) {
  mathx::ByteWriter w;
  canonical_inputs(job, w);
  return w.hash();
}

void encode_value(const JobValue& value, mathx::ByteWriter& w) {
  std::visit(
      [&w](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, YieldResult>) {
          w.u8(kYieldResultV);
          w.i64(v.chips);
          w.i64(v.pass);
          w.f64(v.yield);
          w.f64(v.ci95);
        } else if constexpr (std::is_same_v<T, CalYieldResult>) {
          w.u8(kCalResultV);
          w.i64(v.chips);
          w.f64(v.yield_before);
          w.f64(v.yield_after);
        } else if constexpr (std::is_same_v<T, SweepResult>) {
          w.u8(kSweepResultV);
          w.u32(static_cast<std::uint32_t>(v.points.size()));
          for (const auto& p : v.points) {
            w.f64(p.vod_cs);
            w.f64(p.vod_sw);
            w.f64(p.vod_cas);
            w.boolean(p.feasible);
            w.f64(p.margin);
            w.f64(p.area);
            w.f64(p.f_min_hz);
            w.f64(p.t_settle_s);
            w.f64(p.rout_unit);
          }
        } else if constexpr (std::is_same_v<T, SpectrumSummary>) {
          w.u8(kSpectrumResultV);
          w.f64(v.sfdr_db);
          w.f64(v.sndr_db);
          w.f64(v.thd_db);
          w.f64(v.enob);
        } else if constexpr (std::is_same_v<T, IsYieldResult>) {
          w.u8(kIsResultV);
          w.i64(v.chips);
          w.i64(v.fails);
          w.f64(v.yield);
          w.f64(v.ci95);
          w.f64(v.ess);
          w.f64(v.ess_fraction);
          w.f64(v.log_weight_max);
          w.f64(v.log_weight_min);
          w.boolean(v.low_ess);
        } else if constexpr (std::is_same_v<T, StratYieldResult>) {
          w.u8(kStratResultV);
          w.i64(v.chips);
          w.i64(v.pairs);
          w.i32(v.strata);
          w.f64(v.yield);
          w.f64(v.ci95);
        } else if constexpr (std::is_same_v<T, BridgeYieldResult>) {
          w.u8(kBridgeResultV);
          w.f64(v.yield);
          w.f64(v.c);
          w.f64(v.sigma_inl);
        } else if constexpr (std::is_same_v<T, DynSpectrumResult>) {
          w.u8(kDynSpectrumResultV);
          w.i64(v.chips);
          w.i64(v.pass);
          w.f64(v.yield);
          w.f64(v.ci95);
          w.f64(v.sfdr_mean_db);
          w.f64(v.sfdr_min_db);
          w.f64(v.sndr_mean_db);
          w.f64(v.ete_sfdr_mean_db);
          w.i32(v.cells);
        } else if constexpr (std::is_same_v<T, SpiceMcResult>) {
          w.u8(kSpiceMcResultV);
          w.i64(v.chips);
          w.i64(v.pass);
          w.f64(v.yield);
          w.f64(v.ci95);
          w.f64(v.inl_mean);
          w.f64(v.inl_worst);
          w.i64(v.newton_iters);
          w.i64(v.factorizations);
          w.i64(v.refactorizations);
          w.i64(v.warm_starts);
          w.i64(v.warm_start_hits);
          w.i64(v.device_evals);
          w.f64(v.warm_start_hit_rate);
        } else if constexpr (std::is_same_v<T, ArchCompareResult>) {
          w.u8(kArchCompareResultV);
          w.u32(static_cast<std::uint32_t>(v.points.size()));
          for (const auto& p : v.points) {
            w.u8(p.scheme);
            w.i32(p.param);
            w.i32(p.cells);
            w.f64(p.inl_yield);
            w.f64(p.inl_ci95);
            w.f64(p.sfdr_db);
            w.f64(p.ete_sfdr_db);
            w.f64(p.activity);
          }
        }
      },
      value);
}

bool decode_value(JobKind kind, mathx::ByteReader& r, JobValue& out) {
  switch (kind) {
    case JobKind::kInlYield: {
      if (r.u8() != kYieldResultV) return false;
      YieldResult v;
      v.chips = r.i64();
      v.pass = r.i64();
      v.yield = r.f64();
      v.ci95 = r.f64();
      out = v;
      break;
    }
    case JobKind::kCalYield: {
      if (r.u8() != kCalResultV) return false;
      CalYieldResult v;
      v.chips = r.i64();
      v.yield_before = r.f64();
      v.yield_after = r.f64();
      out = v;
      break;
    }
    case JobKind::kSweepBasic:
    case JobKind::kSweepCascode: {
      if (r.u8() != kSweepResultV) return false;
      SweepResult v;
      const std::uint32_t n = r.u32();
      if (n > r.remaining() / (8 * 8 + 1)) return false;
      v.points.resize(n);
      for (auto& p : v.points) {
        p.vod_cs = r.f64();
        p.vod_sw = r.f64();
        p.vod_cas = r.f64();
        p.feasible = r.boolean();
        p.margin = r.f64();
        p.area = r.f64();
        p.f_min_hz = r.f64();
        p.t_settle_s = r.f64();
        p.rout_unit = r.f64();
      }
      out = std::move(v);
      break;
    }
    case JobKind::kSpectrum: {
      if (r.u8() != kSpectrumResultV) return false;
      SpectrumSummary v;
      v.sfdr_db = r.f64();
      v.sndr_db = r.f64();
      v.thd_db = r.f64();
      v.enob = r.f64();
      out = v;
      break;
    }
    case JobKind::kInlYieldIs: {
      if (r.u8() != kIsResultV) return false;
      IsYieldResult v;
      v.chips = r.i64();
      v.fails = r.i64();
      v.yield = r.f64();
      v.ci95 = r.f64();
      v.ess = r.f64();
      v.ess_fraction = r.f64();
      v.log_weight_max = r.f64();
      v.log_weight_min = r.f64();
      v.low_ess = r.boolean();
      out = v;
      break;
    }
    case JobKind::kInlYieldStrat: {
      if (r.u8() != kStratResultV) return false;
      StratYieldResult v;
      v.chips = r.i64();
      v.pairs = r.i64();
      v.strata = r.i32();
      v.yield = r.f64();
      v.ci95 = r.f64();
      out = v;
      break;
    }
    case JobKind::kInlYieldBridge: {
      if (r.u8() != kBridgeResultV) return false;
      BridgeYieldResult v;
      v.yield = r.f64();
      v.c = r.f64();
      v.sigma_inl = r.f64();
      out = v;
      break;
    }
    case JobKind::kDynSpectrum: {
      if (r.u8() != kDynSpectrumResultV) return false;
      DynSpectrumResult v;
      v.chips = r.i64();
      v.pass = r.i64();
      v.yield = r.f64();
      v.ci95 = r.f64();
      v.sfdr_mean_db = r.f64();
      v.sfdr_min_db = r.f64();
      v.sndr_mean_db = r.f64();
      v.ete_sfdr_mean_db = r.f64();
      v.cells = r.i32();
      out = v;
      break;
    }
    case JobKind::kArchCompare: {
      if (r.u8() != kArchCompareResultV) return false;
      ArchCompareResult v;
      const std::uint32_t n = r.u32();
      // Bytes per encoded ArchPoint: u8 scheme + 2 * i32 + 5 * f64.
      if (n > r.remaining() / (5 * 8 + 2 * 4 + 1)) return false;
      v.points.resize(n);
      for (auto& p : v.points) {
        p.scheme = r.u8();
        p.param = r.i32();
        p.cells = r.i32();
        p.inl_yield = r.f64();
        p.inl_ci95 = r.f64();
        p.sfdr_db = r.f64();
        p.ete_sfdr_db = r.f64();
        p.activity = r.f64();
      }
      out = std::move(v);
      break;
    }
    case JobKind::kSpiceMc: {
      if (r.u8() != kSpiceMcResultV) return false;
      SpiceMcResult v;
      v.chips = r.i64();
      v.pass = r.i64();
      v.yield = r.f64();
      v.ci95 = r.f64();
      v.inl_mean = r.f64();
      v.inl_worst = r.f64();
      v.newton_iters = r.i64();
      v.factorizations = r.i64();
      v.refactorizations = r.i64();
      v.warm_starts = r.i64();
      v.warm_start_hits = r.i64();
      v.device_evals = r.i64();
      v.warm_start_hit_rate = r.f64();
      out = v;
      break;
    }
    default: return false;
  }
  return r.done();
}

namespace {

JobValue run_inl_yield(const InlYieldJob& j, int threads,
                       mathx::RunStats* stats) {
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
  YieldResult r;
  r.chips = y.chips;
  r.pass = y.pass;
  r.yield = y.yield;
  r.ci95 = y.ci95;
  return r;
}

JobValue run_cal_yield(const CalYieldJob& j, int threads,
                       mathx::RunStats* stats) {
  const dac::CalibratedYield y = dac::calibration_yield_mc(
      j.spec, j.sigma_unit, j.cal, j.chips, j.seed, j.limit, threads);
  if (stats) *stats = y.stats;
  CalYieldResult r;
  r.chips = y.chips;
  r.yield_before = y.yield_before;
  r.yield_after = y.yield_after;
  return r;
}

JobValue run_sweep_basic(const SweepBasicJob& j, int threads,
                         mathx::RunStats* stats) {
  const core::DesignSpaceExplorer ex(core::CellSizer(j.tech, j.spec));
  SweepResult r;
  r.points =
      ex.sweep_basic(j.cs, j.sw, j.policy, j.fixed_margin, threads, stats);
  return r;
}

JobValue run_sweep_cascode(const SweepCascodeJob& j, int threads,
                           mathx::RunStats* stats) {
  const core::DesignSpaceExplorer ex(core::CellSizer(j.tech, j.spec));
  SweepResult r;
  r.points = ex.sweep_cascode(j.cs, j.sw, j.cas, j.policy, j.fixed_margin,
                              j.agg, threads, stats);
  return r;
}

JobValue run_spectrum(const SpectrumJob& j, int threads,
                      mathx::RunStats* stats) {
  (void)threads;  // waveform synthesis is inherently sequential
  j.spec.validate();
  j.dyn.validate();
  if (j.n_samples < 8 || j.cycles < 1) {
    throw std::invalid_argument("spectrum job: bad record shape");
  }
  dac::SourceErrors errors;
  if (j.sigma_unit > 0.0) {
    mathx::Xoshiro256 rng = mathx::stream_rng(j.seed, 0);
    errors = dac::draw_source_errors(j.spec, j.sigma_unit, rng);
  } else {
    errors = dac::ideal_sources(j.spec);
  }
  const dac::SegmentedDac model(j.spec, std::move(errors));
  const dac::DynamicSimulator sim(model, j.dyn);
  const auto codes = dac::sine_codes(j.spec, j.n_samples, j.cycles);
  mathx::Xoshiro256 jitter_rng = mathx::stream_rng(j.seed, 1);
  mathx::Xoshiro256* rng_ptr =
      j.dyn.jitter_sigma > 0.0 ? &jitter_rng : nullptr;
  const auto wave = j.differential ? sim.waveform_differential(codes, rng_ptr)
                                   : sim.waveform(codes, rng_ptr);
  // Resample at the end of each sample period (settled value), as the
  // Fig. 8 bench does.
  std::vector<double> sampled;
  sampled.reserve(static_cast<std::size_t>(j.n_samples));
  const auto step = static_cast<std::size_t>(j.dyn.oversample);
  for (std::size_t i = step - 1; i < wave.size(); i += step) {
    sampled.push_back(wave[i]);
  }
  const dac::SpectrumResult s = dac::analyze_spectrum(sampled, j.dyn.fs);
  if (stats) {
    stats->evaluated = static_cast<std::int64_t>(sampled.size());
    stats->threads = 1;
  }
  SpectrumSummary r;
  r.sfdr_db = s.sfdr_db;
  r.sndr_db = s.sndr_db;
  r.thd_db = s.thd_db;
  r.enob = s.enob;
  return r;
}

JobValue run_inl_yield_is(const InlYieldIsJob& j, int threads,
                          mathx::RunStats* stats) {
  const dac::IsYieldEstimate y =
      dac::inl_yield_is(j.spec, j.sigma_unit, j.sigma_scale, j.modes, j.chips,
                        j.seed, j.limit, j.ref, threads);
  if (stats) *stats = y.stats;
  IsYieldResult r;
  r.chips = y.chips;
  r.fails = y.fails;
  r.yield = y.yield;
  r.ci95 = y.ci95;
  r.ess = y.ess;
  r.ess_fraction = y.ess_fraction;
  r.log_weight_max = y.log_weight_max;
  r.log_weight_min = y.log_weight_min;
  r.low_ess = y.low_ess;
  return r;
}

JobValue run_inl_yield_strat(const InlYieldStratJob& j, int threads,
                             mathx::RunStats* stats) {
  const dac::StratYieldEstimate y = dac::inl_yield_stratified(
      j.spec, j.sigma_unit, j.strata, j.chips, j.seed, j.limit, j.ref,
      threads);
  if (stats) *stats = y.stats;
  StratYieldResult r;
  r.chips = y.chips;
  r.pairs = y.pairs;
  r.strata = y.strata;
  r.yield = y.yield;
  r.ci95 = y.ci95;
  return r;
}

JobValue run_inl_yield_bridge(const InlYieldBridgeJob& j, int threads,
                              mathx::RunStats* stats) {
  (void)threads;  // closed form; nothing to parallelize
  const dac::BridgeYieldEstimate y =
      dac::inl_yield_bridge(j.spec, j.sigma_unit, j.limit);
  if (stats) {
    stats->evaluated = 0;  // no chips drawn: that is the whole point
    stats->threads = 1;
  }
  BridgeYieldResult r;
  r.yield = y.yield;
  r.c = y.c;
  r.sigma_inl = y.sigma_inl;
  return r;
}

/// Resolves the scheme-param defaults against the spec: segmented 0 means
/// the spec's own binary split; optimized 0 means "same cell count as the
/// spec's segmented architecture" so comparisons stay cell- and
/// area-matched.
arch::WeightingScheme resolve_weighting(const core::DacSpec& spec,
                                        arch::WeightingKind kind, int param) {
  int p = param;
  if (kind == arch::WeightingKind::kSegmented && p == 0) p = spec.binary_bits;
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

JobValue run_dyn_spectrum(const DynSpectrumJob& j, int threads,
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
  const std::vector<int> codes =
      dac::sine_codes(j.spec, j.n_samples, j.cycles);

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
    const dac::SpectrumResult s = sim.spectrum(codes, t, j.cycles);
    const arch::EtePrediction p =
        arch::ete_predict(arr, t, v_lsb, j.timing.fs, codes, j.cycles);
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

JobValue run_arch_compare(const ArchCompareJob& j, int threads,
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
      std::vector<double> levels;
      std::vector<std::uint8_t> on;
    };
    const mathx::YieldRun run = mathx::run_blocks(
        {.max_items = j.chips, .batch = j.chips}, threads, /*block=*/1,
        [&] {
          Ws ws;
          ws.prefix.resize(static_cast<std::size_t>(total_units) + 1);
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
          for (int code = 0; code < n_codes; ++code) {
            arr.encode(code, ws.on);
            double level = 0.0;
            for (std::size_t c = 0; c < w.size(); ++c) {
              if (!ws.on[c]) continue;
              level += w[c] +
                       (ws.prefix[static_cast<std::size_t>(offset[c + 1])] -
                        ws.prefix[static_cast<std::size_t>(offset[c])]);
            }
            ws.levels[static_cast<std::size_t>(code)] = level;
          }
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
    double sfdr_sum = 0.0, ete_sum = 0.0;
    for (int d = 0; d < j.dyn_chips; ++d) {
      mathx::Xoshiro256 rng = mathx::stream_rng(
          j.seed ^ 0x74696d696e67ULL,
          (static_cast<std::uint64_t>(a) << 32) |
              static_cast<std::uint64_t>(d));
      const arch::CellTiming t =
          arch::draw_cell_timing(arr.cells(), j.timing, rng);
      sfdr_sum += sim.spectrum(codes, t, j.cycles).sfdr_db;
      ete_sum +=
          arch::ete_predict(arr, t, v_lsb, j.timing.fs, codes, j.cycles)
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

JobValue run_spice_mc(const SpiceMcJob& j, int threads,
                      mathx::RunStats* stats) {
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

JobValue execute_job(const Job& job, int threads, mathx::RunStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();
  JobValue value = std::visit(
      [&](const auto& j) -> JobValue {
        using T = std::decay_t<decltype(j)>;
        if constexpr (std::is_same_v<T, InlYieldJob>) {
          return run_inl_yield(j, threads, stats);
        } else if constexpr (std::is_same_v<T, CalYieldJob>) {
          return run_cal_yield(j, threads, stats);
        } else if constexpr (std::is_same_v<T, SweepBasicJob>) {
          return run_sweep_basic(j, threads, stats);
        } else if constexpr (std::is_same_v<T, SweepCascodeJob>) {
          return run_sweep_cascode(j, threads, stats);
        } else if constexpr (std::is_same_v<T, InlYieldIsJob>) {
          return run_inl_yield_is(j, threads, stats);
        } else if constexpr (std::is_same_v<T, InlYieldStratJob>) {
          return run_inl_yield_strat(j, threads, stats);
        } else if constexpr (std::is_same_v<T, InlYieldBridgeJob>) {
          return run_inl_yield_bridge(j, threads, stats);
        } else if constexpr (std::is_same_v<T, DynSpectrumJob>) {
          return run_dyn_spectrum(j, threads, stats);
        } else if constexpr (std::is_same_v<T, ArchCompareJob>) {
          return run_arch_compare(j, threads, stats);
        } else if constexpr (std::is_same_v<T, SpiceMcJob>) {
          return run_spice_mc(j, threads, stats);
        } else {
          return run_spectrum(j, threads, stats);
        }
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
