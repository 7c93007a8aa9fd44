// One small job of every kind, shared by the per-kind golden test
// (tests/runtime/golden_kinds_test.cpp), the wall-time test and the
// generator of tests/runtime/golden_kinds.inc
// (tools/gen_golden_static.cpp, "kinds" mode). The jobs are sized to run
// in well under a second each on one thread. Changing any of them
// changes the golden file: regenerate it and say so in the commit.
#pragma once

#include <string>
#include <vector>

#include "core/accuracy.hpp"
#include "runtime/job.hpp"
#include "runtime/json.hpp"
#include "serve/request.hpp"
#include "tech/tech.hpp"

namespace csdac::golden {

/// One row of golden_kinds.inc: what a job must hash to, encode to and
/// answer, pinned as the code produced it when the file was generated.
struct GoldenKind {
  const char* name;  ///< kind name, or the request alias ("dnl_yield")
  const char* key;   ///< job_key(job).hex()
  std::size_t bytes;        ///< encode_value(result).size()
  const char* value_hash;   ///< hash128 of the encoded result, hex
  const char* json;         ///< {"result":{...}} as emit_result writes it
};

struct NamedJob {
  std::string name;
  runtime::Job job;
};

/// The eleven kinds in JobKind order, then a request-parsed dnl_yield job
/// (the one wire alias, which maps onto InlYieldJob with dnl = true), then
/// timing-skew variants of dyn_spectrum and arch_compare, then spectrum
/// variants with every converter effect on. The plain rows run with
/// sigma_t = asym_sigma = 0, where every edge ties; the skew rows pin the
/// sorted-edge walk, including edges held at the [0, 0.45 ts] clamp. The
/// spectrum rows pin the level walk: mismatch, droop, binary skew and a
/// (negative) feedthrough kick single-ended, and jitter differentially.
inline std::vector<NamedJob> golden_kind_jobs() {
  using namespace runtime;
  core::DacSpec spec8;
  spec8.nbits = 8;
  spec8.binary_bits = 3;
  const double sigma = 0.0259427;
  const tech::MosTechParams nmos = tech::generic_035um().nmos;

  InlYieldJob inl;
  inl.sigma_unit = core::unit_sigma_spec(inl.spec.nbits, inl.spec.inl_yield);
  inl.chips = 60;
  inl.seed = 1234;
  CalYieldJob cal;
  cal.spec = spec8;
  cal.sigma_unit = 4.0 * sigma;
  cal.chips = 20;
  SweepBasicJob basic;
  basic.tech = nmos;
  basic.cs = {0.1, 0.9, 3};
  basic.sw = {0.1, 0.9, 3};
  SweepCascodeJob cascode;
  cascode.tech = nmos;
  cascode.cs = cascode.sw = cascode.cas = {0.1, 0.9, 3};
  SpectrumJob spectrum;
  spectrum.spec = spec8;
  spectrum.n_samples = 256;
  spectrum.cycles = 7;
  InlYieldIsJob is;
  is.spec = spec8;
  is.sigma_unit = sigma;
  is.chips = 50;
  InlYieldStratJob strat;
  strat.spec = spec8;
  strat.sigma_unit = sigma;
  strat.strata = 2;
  strat.chips = 50;
  InlYieldBridgeJob bridge;
  bridge.spec = spec8;
  bridge.sigma_unit = sigma;
  DynSpectrumJob dyn;
  dyn.spec = spec8;
  dyn.timing.oversample = 8;
  dyn.n_samples = 128;
  dyn.cycles = 7;
  dyn.chips = 2;
  ArchCompareJob compare;
  compare.spec = spec8;
  compare.sigma_unit = 0.01;
  compare.timing.oversample = 8;
  compare.n_samples = 128;
  compare.cycles = 7;
  compare.chips = 10;
  compare.dyn_chips = 1;
  compare.seg_hi = 3;
  SpiceMcJob spice;
  spice.spec.nbits = 4;
  spice.spec.binary_bits = 2;
  spice.tech = nmos;
  spice.chips = 1;

  std::vector<NamedJob> jobs;
  for (Job job : {Job(inl), Job(cal), Job(basic), Job(cascode),
                  Job(spectrum), Job(is), Job(strat), Job(bridge), Job(dyn),
                  Job(compare), Job(spice)}) {
    const std::string name(kind_name(job_kind(job)));
    jobs.push_back({name, std::move(job)});
  }
  JsonValue dnl;
  parse_json(R"({"kind": "dnl_yield", "spec": {"nbits": 8, "binary_bits": 3},
                 "sigma_unit": 0.0259427, "chips": 50, "seed": 7})",
             dnl, nullptr);
  jobs.push_back({"dnl_yield", serve::parse_job(dnl)});

  DynSpectrumJob skew = dyn;
  skew.timing.sigma_t = 300e-12;
  skew.timing.asym_sigma = 200e-12;
  skew.chips = 3;
  skew.seed = 5;
  jobs.push_back({"dyn_spectrum_skew", skew});
  DynSpectrumJob skew_binary = skew;
  skew_binary.scheme = arch::WeightingKind::kBinary;
  skew_binary.timing.oversample = 16;
  jobs.push_back({"dyn_spectrum_skew_binary", skew_binary});
  ArchCompareJob compare_skew = compare;
  compare_skew.timing.sigma_t = 300e-12;
  compare_skew.timing.asym_sigma = 200e-12;
  compare_skew.dyn_chips = 2;
  compare_skew.include_unary = true;
  compare_skew.seed = 3;
  jobs.push_back({"arch_compare_skew", compare_skew});
  SpectrumJob effects = spectrum;
  effects.sigma_unit = sigma;
  effects.seed = 11;
  effects.dyn.rout_unit = 20e6;
  effects.dyn.binary_skew = 60e-12;
  effects.dyn.feedthrough_lsb = -0.2;
  effects.differential = false;
  jobs.push_back({"spectrum_effects", effects});
  SpectrumJob jitter = spectrum;
  jitter.dyn.jitter_sigma = 5e-12;
  jitter.seed = 13;
  jobs.push_back({"spectrum_jitter", jitter});
  return jobs;
}

}  // namespace csdac::golden
