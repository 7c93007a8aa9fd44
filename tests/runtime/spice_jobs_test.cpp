// Runtime + serve integration of the SPICE-in-the-loop mismatch MC job:
// cache-key discipline (every result-determining field feeds the key),
// codec round trips, equivalence with the direct dacgen runner, a warm
// cache pass that solves zero MNA systems, and the request-parser ceilings
// that keep hostile spice_mc requests from sizing transistor-level loops.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/sizer.hpp"
#include "dac/static_analysis.hpp"
#include "dacgen/spice_mc.hpp"
#include "runtime/executor.hpp"
#include "serve/request.hpp"
#include "tech/tech.hpp"

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

SpiceMcJob small_job() {
  SpiceMcJob j;
  j.spec.nbits = 4;
  j.spec.binary_bits = 2;
  j.tech = tech::generic_035um().nmos;
  j.chips = 3;
  j.seed = 11;
  j.limit = 0.5;
  return j;
}

TEST(SpiceJobKey, EveryFieldChangesTheKey) {
  const auto base = job_key(small_job());
  SpiceMcJob j = small_job();
  j.spec.nbits = 5;
  EXPECT_NE(job_key(j), base) << "spec.nbits";
  j = small_job();
  j.tech.a_vt *= 1.0000001;
  EXPECT_NE(job_key(j), base) << "tech.a_vt";
  j = small_job();
  j.vod_cs = 0.3;
  EXPECT_NE(job_key(j), base) << "vod_cs";
  j = small_job();
  j.vod_sw = 0.25;
  EXPECT_NE(job_key(j), base) << "vod_sw";
  j = small_job();
  j.vod_cas = 0.25;
  EXPECT_NE(job_key(j), base) << "vod_cas";
  j = small_job();
  j.cascode = false;
  EXPECT_NE(job_key(j), base) << "cascode";
  j = small_job();
  j.chips += 1;
  EXPECT_NE(job_key(j), base) << "chips";
  j = small_job();
  j.seed += 1;
  EXPECT_NE(job_key(j), base) << "seed";
  j = small_job();
  j.limit = 0.6;
  EXPECT_NE(job_key(j), base) << "limit";
  j = small_job();
  j.sigma_scale = 2.0;
  EXPECT_NE(job_key(j), base) << "sigma_scale";
  j = small_job();
  j.differential = false;
  EXPECT_NE(job_key(j), base) << "differential";
  j = small_job();
  j.with_caps = true;
  EXPECT_NE(job_key(j), base) << "with_caps";
  EXPECT_EQ(job_key(small_job()), base);
}

TEST(SpiceJobKey, KindNameIsStable) {
  EXPECT_EQ(kind_name(job_kind(Job(small_job()))), "spice_mc");
}

TEST(SpiceJobs, ResultCodecRoundTripsAndRejectsTrailing) {
  const JobValue v = execute_job(small_job(), 1, nullptr);
  mathx::ByteWriter w;
  encode_value(v, w);
  {
    mathx::ByteReader r(w.data());
    JobValue out;
    ASSERT_TRUE(decode_value(JobKind::kSpiceMc, r, out));
    const auto& a = std::get<SpiceMcResult>(v);
    const auto& b = std::get<SpiceMcResult>(out);
    EXPECT_EQ(b.chips, a.chips);
    EXPECT_EQ(b.pass, a.pass);
    EXPECT_EQ(b.yield, a.yield);
    EXPECT_EQ(b.ci95, a.ci95);
    EXPECT_EQ(b.inl_mean, a.inl_mean);
    EXPECT_EQ(b.inl_worst, a.inl_worst);
    EXPECT_EQ(b.newton_iters, a.newton_iters);
    EXPECT_EQ(b.factorizations, a.factorizations);
    EXPECT_EQ(b.refactorizations, a.refactorizations);
    EXPECT_EQ(b.warm_starts, a.warm_starts);
    EXPECT_EQ(b.warm_start_hits, a.warm_start_hits);
    EXPECT_EQ(b.device_evals, a.device_evals);
    EXPECT_EQ(b.warm_start_hit_rate, a.warm_start_hit_rate);
  }
  {
    auto bytes = w.data();
    bytes.push_back(0);
    mathx::ByteReader r(bytes);
    JobValue out;
    EXPECT_FALSE(decode_value(JobKind::kSpiceMc, r, out))
        << "trailing byte must fail strict decode";
  }
}

TEST(SpiceJobs, MatchesDirectRunnerAndWarmPassSolvesNothing) {
  ScratchDir dir("roundtrip-spice");
  ExecutorOptions eo;
  eo.cache_dir = dir.str();
  const SpiceMcJob job = small_job();
  const ExecResult first = JobExecutor(eo).run(job, job_key(job), 1);
  ASSERT_FALSE(first.cache_hit());
  const auto& fresh = std::get<SpiceMcResult>(first.value);
  EXPECT_EQ(fresh.chips, 3);
  EXPECT_GE(fresh.yield, 0.0);
  EXPECT_LE(fresh.yield, 1.0);
  EXPECT_GT(fresh.newton_iters, 0);
  EXPECT_GT(fresh.device_evals, 0);

  // Equivalence with the direct dacgen call (same sizing path as the
  // runner).
  const SpiceMcJob j = small_job();
  const core::CellSizer sizer(j.tech, j.spec);
  const core::SizedCell cell =
      sizer.size_cascode(j.vod_cs, j.vod_sw, j.vod_cas);
  dacgen::SpiceMcOptions o;
  o.chips = j.chips;
  o.seed = j.seed;
  o.limit = j.limit;
  const auto direct = dacgen::spice_mismatch_mc(j.spec, cell, j.tech, o);
  EXPECT_EQ(fresh.pass, direct.pass);
  EXPECT_EQ(fresh.yield, direct.yield);
  EXPECT_EQ(fresh.inl_mean, direct.inl_mean);
  EXPECT_EQ(fresh.inl_worst, direct.inl_worst);
  EXPECT_EQ(fresh.newton_iters, direct.newton_iters);
  EXPECT_EQ(fresh.device_evals, direct.device_evals);

  // Warm pass: bit-identical result out of the cache, zero transistor-level
  // chips evaluated (nothing is rebuilt or re-solved).
  const std::int64_t evals0 = dac::mc_chips_evaluated();
  for (const int threads : {1, 3}) {
    const ExecResult again = JobExecutor(eo).run(job, job_key(job), threads);
    EXPECT_TRUE(again.cache_hit()) << threads << " threads";
    const auto& cached = std::get<SpiceMcResult>(again.value);
    EXPECT_EQ(cached.pass, fresh.pass);
    EXPECT_EQ(cached.yield, fresh.yield);
    EXPECT_EQ(cached.ci95, fresh.ci95);
    EXPECT_EQ(cached.inl_mean, fresh.inl_mean);
    EXPECT_EQ(cached.inl_worst, fresh.inl_worst);
    EXPECT_EQ(cached.newton_iters, fresh.newton_iters);
    EXPECT_EQ(cached.refactorizations, fresh.refactorizations);
    EXPECT_EQ(cached.warm_start_hits, fresh.warm_start_hits);
    EXPECT_EQ(cached.device_evals, fresh.device_evals);
  }
  EXPECT_EQ(dac::mc_chips_evaluated(), evals0)
      << "warm spice_mc passes must not touch the solver";
}

TEST(SpiceJobs, WarmStartPaysOffAcrossCorners) {
  const JobValue v = execute_job(small_job(), 1, nullptr);
  const auto& r = std::get<SpiceMcResult>(v);
  // chips-1 corners reuse the previous corner's operating point per code.
  EXPECT_GT(r.warm_starts, 0);
  EXPECT_GT(r.warm_start_hits, 0);
  EXPECT_GT(r.warm_start_hit_rate, 0.0);
  EXPECT_LE(r.warm_start_hit_rate, 1.0);
  // The 4-bit fixture sits below the kAuto sparse threshold on purpose —
  // small circuits stay on the dense path, so no sparse factorizations
  // are expected here (the sparse counters are covered at array scale by
  // the spice equivalence suite).
  EXPECT_EQ(r.factorizations, 0);
  EXPECT_EQ(r.refactorizations, 0);
}

// --- Serve-layer parsing ---------------------------------------------------

std::string request_with(const std::string& job_json) {
  return std::string("{\"schema\":\"csdac-request/1\",\"jobs\":[") +
         job_json + "]}";
}

TEST(SpiceServeParse, HappyPath) {
  const auto jobs = serve::parse_request_text(request_with(
      "{\"kind\":\"spice_mc\",\"spec\":{\"nbits\":6,\"binary_bits\":2},"
      "\"tech\":\"generic_035um\",\"vod_cs\":0.3,\"vod_sw\":0.22,"
      "\"vod_cas\":0.21,\"cascode\":true,\"chips\":8,\"seed\":4,"
      "\"limit\":0.4,\"sigma_scale\":1.5,\"differential\":false,"
      "\"with_caps\":false}"));
  ASSERT_EQ(jobs.size(), 1u);
  const auto& j = std::get<SpiceMcJob>(jobs[0].job);
  EXPECT_EQ(j.spec.nbits, 6);
  EXPECT_EQ(j.spec.binary_bits, 2);
  EXPECT_DOUBLE_EQ(j.vod_cs, 0.3);
  EXPECT_DOUBLE_EQ(j.vod_sw, 0.22);
  EXPECT_DOUBLE_EQ(j.vod_cas, 0.21);
  EXPECT_TRUE(j.cascode);
  EXPECT_EQ(j.chips, 8);
  EXPECT_EQ(j.seed, 4u);
  EXPECT_DOUBLE_EQ(j.limit, 0.4);
  EXPECT_DOUBLE_EQ(j.sigma_scale, 1.5);
  EXPECT_FALSE(j.differential);
}

TEST(SpiceServeParse, DefaultsApply) {
  const auto jobs = serve::parse_request_text(request_with(
      "{\"kind\":\"spice_mc\",\"spec\":{\"nbits\":4,\"binary_bits\":2}}"));
  ASSERT_EQ(jobs.size(), 1u);
  const auto& j = std::get<SpiceMcJob>(jobs[0].job);
  EXPECT_EQ(j.chips, 16);
  EXPECT_EQ(j.seed, 1000u);
  EXPECT_TRUE(j.cascode);
  EXPECT_TRUE(j.differential);
  EXPECT_FALSE(j.with_caps);
}

void expect_bad_job(const std::string& job_json, const char* what) {
  try {
    serve::parse_request_text(request_with(job_json));
    FAIL() << "expected rejection: " << what;
  } catch (const serve::RequestError& e) {
    EXPECT_EQ(e.code(), "bad_job") << what;
  }
}

TEST(SpiceServeParse, RejectsHostileFields) {
  const std::string base =
      "{\"kind\":\"spice_mc\",\"spec\":{\"nbits\":6,\"binary_bits\":2}";
  // 2^nbits MNA systems per corner: both resolution and corner count are
  // capped far below the behavioral-MC ceilings.
  expect_bad_job(
      "{\"kind\":\"spice_mc\",\"spec\":{\"nbits\":10,\"binary_bits\":3}}",
      "nbits above spice ceiling");
  expect_bad_job(base + ",\"chips\":65}", "chips above spice ceiling");
  expect_bad_job(base + ",\"chips\":0}", "zero chips");
  expect_bad_job(base + ",\"sigma_scale\":-1}", "negative sigma_scale");
  expect_bad_job(base + ",\"sigma_scale\":9}", "sigma_scale ceiling");
  expect_bad_job(base + ",\"limit\":0}", "zero limit");
  expect_bad_job(base + ",\"vod_cs\":3.0}", "vod_cs above range");
  expect_bad_job(base + ",\"vod_sw\":0.0}", "zero vod_sw");
  expect_bad_job(base + ",\"tech\":\"tsmc7\"}", "unknown tech");
}

}  // namespace
}  // namespace csdac::runtime
