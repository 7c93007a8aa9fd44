// Runtime and serve integration of the architecture jobs: cache-key
// discipline, codec round trips, thread invariance, the golden cold/warm
// round trip (warm pass synthesizes zero waveforms), and request parsing
// for the new kinds including hostile-field rejection.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <variant>
#include <vector>

#include "arch/instruments.hpp"
#include "arch/weighting.hpp"
#include "dac/static_analysis.hpp"
#include "mathx/hash.hpp"
#include "runtime/executor.hpp"
#include "serve/request.hpp"

namespace csdac::runtime {
namespace {

namespace fs = std::filesystem;

struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const char* tag) {
    path = fs::path(testing::TempDir()) /
           (std::string("csdac-") + tag + "-" +
            std::to_string(static_cast<unsigned long long>(
                reinterpret_cast<std::uintptr_t>(this))));
    fs::remove_all(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

core::DacSpec spec10() {
  core::DacSpec spec;
  spec.nbits = 10;
  spec.binary_bits = 3;
  return spec;
}

DynSpectrumJob small_dyn_job() {
  DynSpectrumJob j;
  j.spec = spec10();
  j.scheme = arch::WeightingKind::kSegmented;
  j.timing.oversample = 8;
  j.timing.sigma_t = 60e-12;
  j.n_samples = 128;
  j.cycles = 7;
  j.chips = 4;
  j.seed = 5;
  return j;
}

ArchCompareJob small_compare_job() {
  ArchCompareJob j;
  j.spec = spec10();
  j.sigma_unit = 0.01;
  j.timing.oversample = 8;
  j.timing.sigma_t = 60e-12;
  j.n_samples = 128;
  j.cycles = 7;
  j.chips = 60;
  j.dyn_chips = 2;
  j.seed = 5;
  j.seg_lo = 2;
  j.seg_hi = 4;
  return j;
}

TEST(ArchJobKey, KindsNeverCollide) {
  const auto k_dyn = job_key(small_dyn_job());
  const auto k_cmp = job_key(small_compare_job());
  EXPECT_NE(k_dyn, k_cmp);
  InlYieldJob plain;
  plain.spec = spec10();
  EXPECT_NE(job_key(plain), k_dyn);
  EXPECT_NE(job_key(plain), k_cmp);
}

TEST(ArchJobKey, EveryDynFieldChangesTheKey) {
  const auto base = job_key(small_dyn_job());
  DynSpectrumJob j = small_dyn_job();
  j.scheme = arch::WeightingKind::kBinary;
  EXPECT_NE(job_key(j), base) << "scheme";
  j = small_dyn_job();
  j.scheme_param = 4;
  EXPECT_NE(job_key(j), base) << "scheme_param";
  j = small_dyn_job();
  j.timing.fs = 400e6;
  EXPECT_NE(job_key(j), base) << "timing.fs";
  j = small_dyn_job();
  j.timing.oversample = 16;
  EXPECT_NE(job_key(j), base) << "timing.oversample";
  j = small_dyn_job();
  j.timing.tau = 0.3e-9;
  EXPECT_NE(job_key(j), base) << "timing.tau";
  j = small_dyn_job();
  j.timing.sigma_t = 61e-12;
  EXPECT_NE(job_key(j), base) << "timing.sigma_t";
  j = small_dyn_job();
  j.timing.asym_sigma = 5e-12;
  EXPECT_NE(job_key(j), base) << "timing.asym_sigma";
  j = small_dyn_job();
  j.n_samples = 256;
  EXPECT_NE(job_key(j), base) << "n_samples";
  j = small_dyn_job();
  j.cycles = 11;
  EXPECT_NE(job_key(j), base) << "cycles";
  j = small_dyn_job();
  j.sfdr_limit_db = 55.0;
  EXPECT_NE(job_key(j), base) << "sfdr_limit_db";
  j = small_dyn_job();
  j.chips += 1;
  EXPECT_NE(job_key(j), base) << "chips";
  j = small_dyn_job();
  j.seed += 1;
  EXPECT_NE(job_key(j), base) << "seed";
  j = small_dyn_job();
  j.adaptive = true;
  EXPECT_NE(job_key(j), base) << "adaptive";
  j = small_dyn_job();
  j.spec.nbits = 8;
  EXPECT_NE(job_key(j), base) << "spec.nbits";
  EXPECT_EQ(job_key(small_dyn_job()), base);
}

TEST(ArchJobKey, EveryCompareFieldChangesTheKey) {
  const auto base = job_key(small_compare_job());
  ArchCompareJob j = small_compare_job();
  j.sigma_unit = 0.02;
  EXPECT_NE(job_key(j), base) << "sigma_unit";
  j = small_compare_job();
  j.chips += 1;
  EXPECT_NE(job_key(j), base) << "chips";
  j = small_compare_job();
  j.dyn_chips += 1;
  EXPECT_NE(job_key(j), base) << "dyn_chips";
  j = small_compare_job();
  j.limit = 0.6;
  EXPECT_NE(job_key(j), base) << "limit";
  j = small_compare_job();
  j.seg_lo = 3;
  EXPECT_NE(job_key(j), base) << "seg_lo";
  j = small_compare_job();
  j.seg_hi = 5;
  EXPECT_NE(job_key(j), base) << "seg_hi";
  j = small_compare_job();
  j.include_unary = true;
  EXPECT_NE(job_key(j), base) << "include_unary";
  j = small_compare_job();
  j.opt_cells = 20;
  EXPECT_NE(job_key(j), base) << "opt_cells";
  j = small_compare_job();
  j.timing.sigma_t = 10e-12;
  EXPECT_NE(job_key(j), base) << "timing.sigma_t";
  j = small_compare_job();
  j.seed += 1;
  EXPECT_NE(job_key(j), base) << "seed";
  EXPECT_EQ(job_key(small_compare_job()), base);
}

TEST(ArchJobs, KindNamesAreStable) {
  EXPECT_EQ(kind_name(job_kind(Job(small_dyn_job()))), "dyn_spectrum");
  EXPECT_EQ(kind_name(job_kind(Job(small_compare_job()))), "arch_compare");
}

TEST(ArchJobs, ResultCodecRoundTripsAndRejectsTrailing) {
  const JobValue v = execute_job(small_dyn_job(), 1, nullptr);
  mathx::ByteWriter w;
  encode_value(v, w);
  {
    mathx::ByteReader r(w.data());
    JobValue out;
    ASSERT_TRUE(decode_value(JobKind::kDynSpectrum, r, out));
    const auto& a = std::get<DynSpectrumResult>(v);
    const auto& b = std::get<DynSpectrumResult>(out);
    EXPECT_EQ(b.chips, a.chips);
    EXPECT_EQ(b.pass, a.pass);
    EXPECT_EQ(b.yield, a.yield);
    EXPECT_EQ(b.ci95, a.ci95);
    EXPECT_EQ(b.sfdr_mean_db, a.sfdr_mean_db);
    EXPECT_EQ(b.sfdr_min_db, a.sfdr_min_db);
    EXPECT_EQ(b.sndr_mean_db, a.sndr_mean_db);
    EXPECT_EQ(b.ete_sfdr_mean_db, a.ete_sfdr_mean_db);
    EXPECT_EQ(b.cells, a.cells);
  }
  {
    auto bytes = w.data();
    bytes.push_back(0);
    mathx::ByteReader r(bytes);
    JobValue out;
    EXPECT_FALSE(decode_value(JobKind::kDynSpectrum, r, out))
        << "trailing byte must fail strict decode";
  }

  const JobValue cv = execute_job(small_compare_job(), 2, nullptr);
  mathx::ByteWriter cw;
  encode_value(cv, cw);
  mathx::ByteReader cr(cw.data());
  JobValue cout_v;
  ASSERT_TRUE(decode_value(JobKind::kArchCompare, cr, cout_v));
  const auto& ca = std::get<ArchCompareResult>(cv);
  const auto& cb = std::get<ArchCompareResult>(cout_v);
  ASSERT_EQ(cb.points.size(), ca.points.size());
  for (std::size_t i = 0; i < ca.points.size(); ++i) {
    EXPECT_EQ(cb.points[i].scheme, ca.points[i].scheme);
    EXPECT_EQ(cb.points[i].param, ca.points[i].param);
    EXPECT_EQ(cb.points[i].cells, ca.points[i].cells);
    EXPECT_EQ(cb.points[i].inl_yield, ca.points[i].inl_yield);
    EXPECT_EQ(cb.points[i].sfdr_db, ca.points[i].sfdr_db);
    EXPECT_EQ(cb.points[i].ete_sfdr_db, ca.points[i].ete_sfdr_db);
    EXPECT_EQ(cb.points[i].activity, ca.points[i].activity);
  }
}

TEST(ArchJobs, DynSpectrumThreadInvariantAndSane) {
  const auto v1 = execute_job(small_dyn_job(), 1, nullptr);
  const auto v4 = execute_job(small_dyn_job(), 4, nullptr);
  const auto& a = std::get<DynSpectrumResult>(v1);
  const auto& b = std::get<DynSpectrumResult>(v4);
  EXPECT_EQ(a.chips, b.chips);
  EXPECT_EQ(a.pass, b.pass);
  EXPECT_EQ(a.yield, b.yield);
  EXPECT_EQ(a.sfdr_mean_db, b.sfdr_mean_db);
  EXPECT_EQ(a.sfdr_min_db, b.sfdr_min_db);
  EXPECT_EQ(a.sndr_mean_db, b.sndr_mean_db);
  EXPECT_EQ(a.ete_sfdr_mean_db, b.ete_sfdr_mean_db);

  EXPECT_EQ(a.chips, 4);
  EXPECT_GE(a.yield, 0.0);
  EXPECT_LE(a.yield, 1.0);
  EXPECT_GE(a.sfdr_mean_db, a.sfdr_min_db);
  // Resolved segmented cell count at the spec's split (3 binary LSBs).
  const auto seg = arch::make_weighting(arch::WeightingKind::kSegmented,
                                        10, 3);
  EXPECT_EQ(a.cells, static_cast<std::int32_t>(seg.weights.size()));
  // ETE cross-check lands in the same regime as the waveform MC.
  EXPECT_NEAR(a.ete_sfdr_mean_db, a.sfdr_mean_db, 5.0);
}

TEST(ArchJobs, FullyThermometerSpecWalksUnitCells) {
  // binary_bits 0 and the default split: every cell is a unit cell, not
  // make_weighting's nbits/3 segmentation.
  DynSpectrumJob j = small_dyn_job();
  j.spec.nbits = 6;
  j.spec.binary_bits = 0;
  j.chips = 2;
  const auto v = execute_job(j, 1, nullptr);
  EXPECT_EQ(std::get<DynSpectrumResult>(v).cells, 63);
}

TEST(ArchJobs, CompareSweepShapeAndActivityOrdering) {
  const auto v = execute_job(small_compare_job(), 2, nullptr);
  const auto& r = std::get<ArchCompareResult>(v);
  // binary + segmented splits {2,3,4} + optimized.
  ASSERT_EQ(r.points.size(), 5u);
  EXPECT_EQ(r.points.front().scheme,
            static_cast<std::uint8_t>(arch::WeightingKind::kBinary));
  EXPECT_EQ(r.points.back().scheme,
            static_cast<std::uint8_t>(arch::WeightingKind::kOptimized));
  const double binary_activity = r.points.front().activity;
  for (std::size_t i = 1; i < r.points.size(); ++i) {
    const auto& p = r.points[i];
    EXPECT_LT(p.activity, binary_activity) << "point " << i;
    EXPECT_GE(p.inl_yield, 0.0);
    EXPECT_LE(p.inl_yield, 1.0);
    EXPECT_GT(p.cells, 10);
  }
  // Same unit-error pool for every architecture (common random numbers):
  // the unary-free sweep still orders yields sensibly, and every point
  // reports the full chip budget.
  for (const auto& p : r.points) {
    EXPECT_GT(p.sfdr_db, 0.0);
    EXPECT_GT(p.ete_sfdr_db, 0.0);
  }
}

// Golden trend (c): cold -> warm round trip through the persistent cache
// is bit-identical and the warm pass synthesizes zero waveforms and draws
// zero mismatch chips.
TEST(ArchRoundTrip, CachedDynSpectrumBitIdenticalAndRecomputesNothing) {
  ScratchDir dir("roundtrip-arch-dyn");
  ExecutorOptions eo;
  eo.cache_dir = dir.str();
  const DynSpectrumJob job = small_dyn_job();
  const ExecResult first = JobExecutor(eo).run(job, job_key(job), 1);
  ASSERT_FALSE(first.cache_hit());
  const auto& fresh = std::get<DynSpectrumResult>(first.value);

  const std::int64_t waves0 = arch::arch_instruments().waveforms.value();
  const std::int64_t evals0 = dac::mc_chips_evaluated();
  for (const int threads : {1, 3}) {
    const ExecResult again = JobExecutor(eo).run(job, job_key(job), threads);
    EXPECT_TRUE(again.cache_hit()) << threads << " threads";
    const auto& cached = std::get<DynSpectrumResult>(again.value);
    EXPECT_EQ(cached.chips, fresh.chips);
    EXPECT_EQ(cached.pass, fresh.pass);
    EXPECT_EQ(cached.yield, fresh.yield);
    EXPECT_EQ(cached.ci95, fresh.ci95);
    EXPECT_EQ(cached.sfdr_mean_db, fresh.sfdr_mean_db);
    EXPECT_EQ(cached.sfdr_min_db, fresh.sfdr_min_db);
    EXPECT_EQ(cached.sndr_mean_db, fresh.sndr_mean_db);
    EXPECT_EQ(cached.ete_sfdr_mean_db, fresh.ete_sfdr_mean_db);
    EXPECT_EQ(cached.cells, fresh.cells);
  }
  EXPECT_EQ(arch::arch_instruments().waveforms.value(), waves0)
      << "warm arch passes must not synthesize waveforms";
  EXPECT_EQ(dac::mc_chips_evaluated(), evals0)
      << "warm arch passes must not draw chips";
}

TEST(ArchRoundTrip, CachedArchCompareBitIdentical) {
  ScratchDir dir("roundtrip-arch-cmp");
  ExecutorOptions eo;
  eo.cache_dir = dir.str();
  const ArchCompareJob job = small_compare_job();
  const ExecResult c1 = JobExecutor(eo).run(job, job_key(job), 2);
  ASSERT_FALSE(c1.cache_hit());
  const ExecResult c2 = JobExecutor(eo).run(job, job_key(job), 2);
  ASSERT_TRUE(c2.cache_hit());
  const auto& a = std::get<ArchCompareResult>(c1.value);
  const auto& b = std::get<ArchCompareResult>(c2.value);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].scheme, b.points[i].scheme);
    EXPECT_EQ(a.points[i].inl_yield, b.points[i].inl_yield);
    EXPECT_EQ(a.points[i].inl_ci95, b.points[i].inl_ci95);
    EXPECT_EQ(a.points[i].sfdr_db, b.points[i].sfdr_db);
    EXPECT_EQ(a.points[i].ete_sfdr_db, b.points[i].ete_sfdr_db);
    EXPECT_EQ(a.points[i].activity, b.points[i].activity);
  }
}

// --- Serve-layer parsing ---------------------------------------------------

std::string request_with(const std::string& job_json) {
  return std::string("{\"schema\":\"csdac-request/1\",\"jobs\":[") +
         job_json + "]}";
}

TEST(ArchServeParse, DynSpectrumHappyPath) {
  const auto jobs = serve::parse_request_text(request_with(
      "{\"kind\":\"dyn_spectrum\",\"spec\":{\"nbits\":10,\"binary_bits\":3},"
      "\"scheme\":\"optimized\",\"scheme_param\":20,"
      "\"n_samples\":128,\"cycles\":7,\"fs\":3e8,\"oversample\":8,"
      "\"tau\":2.5e-10,\"sigma_t\":6e-11,\"asym_sigma\":1e-11,"
      "\"chips\":8,\"seed\":9,\"adaptive\":true,\"ci_half_width\":0.05}"));
  ASSERT_EQ(jobs.size(), 1u);
  const auto& j = std::get<DynSpectrumJob>(jobs[0].job);
  EXPECT_EQ(j.scheme, arch::WeightingKind::kOptimized);
  EXPECT_EQ(j.scheme_param, 20);
  EXPECT_EQ(j.n_samples, 128);
  EXPECT_EQ(j.cycles, 7);
  EXPECT_DOUBLE_EQ(j.timing.fs, 3e8);
  EXPECT_EQ(j.timing.oversample, 8);
  EXPECT_DOUBLE_EQ(j.timing.sigma_t, 6e-11);
  EXPECT_EQ(j.chips, 8);
  EXPECT_TRUE(j.adaptive);
  EXPECT_DOUBLE_EQ(j.ci_half_width, 0.05);
}

TEST(ArchServeParse, ArchCompareHappyPath) {
  const auto jobs = serve::parse_request_text(request_with(
      "{\"kind\":\"arch_compare\",\"spec\":{\"nbits\":8,\"binary_bits\":3},"
      "\"sigma_unit\":0.02,\"n_samples\":128,\"cycles\":7,"
      "\"chips\":50,\"dyn_chips\":2,\"seg_lo\":2,\"seg_hi\":4,"
      "\"include_unary\":true}"));
  ASSERT_EQ(jobs.size(), 1u);
  const auto& j = std::get<ArchCompareJob>(jobs[0].job);
  EXPECT_DOUBLE_EQ(j.sigma_unit, 0.02);
  EXPECT_EQ(j.seg_lo, 2);
  EXPECT_EQ(j.seg_hi, 4);
  EXPECT_TRUE(j.include_unary);
}

void expect_bad_job(const std::string& job_json, const char* what) {
  try {
    serve::parse_request_text(request_with(job_json));
    FAIL() << "expected rejection: " << what;
  } catch (const serve::RequestError& e) {
    EXPECT_EQ(e.code(), "bad_job") << what;
  }
}

// Overflowing literals like 1e999 die in the JSON layer itself
// ("bad_json"), before field validation can see them — either way the
// request must come back as a structured error, never a server throw.
void expect_rejected(const std::string& job_json, const char* what) {
  try {
    serve::parse_request_text(request_with(job_json));
    FAIL() << "expected rejection: " << what;
  } catch (const serve::RequestError& e) {
    EXPECT_FALSE(e.code().empty()) << what;
  }
}

TEST(ArchServeParse, RejectsHostileDynamicFields) {
  const std::string base =
      "{\"kind\":\"dyn_spectrum\",\"spec\":{\"nbits\":10,\"binary_bits\":3}";
  expect_bad_job(base + ",\"tau\":-1e-9}", "negative tau");
  expect_bad_job(base + ",\"tau\":0}", "zero tau");
  expect_bad_job(base + ",\"oversample\":0}", "oversample 0");
  expect_bad_job(base + ",\"oversample\":1}", "oversample 1");
  expect_bad_job(base + ",\"sigma_t\":-1e-12}", "negative sigma_t");
  expect_bad_job(base + ",\"sigma_t\":2.0}", "sigma_t above range");
  expect_bad_job(base + ",\"asym_sigma\":2.0}", "asym_sigma above range");
  expect_rejected(base + ",\"sigma_t\":1e999}", "overflowing sigma_t");
  expect_rejected(base + ",\"asym_sigma\":1e999}", "overflowing asym_sigma");
  expect_bad_job(base + ",\"fs\":0}", "zero fs");
  expect_bad_job(base + ",\"scheme\":\"thermometer\"}", "unknown scheme");
  expect_bad_job(base + ",\"scheme\":\"binary\",\"scheme_param\":1}",
                 "param on binary");
  expect_bad_job(base + ",\"scheme\":\"optimized\",\"scheme_param\":5}",
                 "budget below nbits");
  expect_bad_job(base + ",\"n_samples\":1048576}", "n_samples ceiling");
  expect_bad_job(base + ",\"n_samples\":128,\"cycles\":64}",
                 "cycles vs Nyquist");
  expect_bad_job(base + ",\"chips\":100000}", "chips ceiling");
  expect_bad_job(
      "{\"kind\":\"dyn_spectrum\",\"spec\":{\"nbits\":16,\"binary_bits\":4}}",
      "nbits ceiling");
}

TEST(ArchServeParse, RejectsHostileCompareFields) {
  const std::string base =
      "{\"kind\":\"arch_compare\",\"spec\":{\"nbits\":12,\"binary_bits\":4},"
      "\"sigma_unit\":0.02";
  expect_bad_job(base + ",\"include_unary\":true}", "unary at 12 bits");
  expect_bad_job(base + ",\"seg_lo\":12}", "seg_lo >= nbits");
  expect_bad_job(base + ",\"seg_lo\":5,\"seg_hi\":3}", "seg_hi < seg_lo");
  expect_bad_job(base + ",\"opt_cells\":5}", "opt_cells below nbits");
  expect_bad_job(base + ",\"dyn_chips\":1000}", "dyn_chips ceiling");
  expect_bad_job(base + ",\"limit\":1e6}", "limit above range");
  expect_rejected(base + ",\"limit\":1e999}", "overflowing limit");
}

}  // namespace
}  // namespace csdac::runtime
