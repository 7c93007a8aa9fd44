// Runtime integration of the rare-event yield jobs: cache-key discipline
// (every result-determining field of InlYieldIsJob / InlYieldStratJob /
// InlYieldBridgeJob feeds the key, the three kinds never collide),
// persistent-store round trips that are bit-identical to fresh
// computation, equivalence with the direct dac:: estimator calls, and a
// warm pass that draws zero proposal chips.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "dac/rare_event.hpp"
#include "dac/static_analysis.hpp"
#include "runtime/executor.hpp"

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

core::DacSpec spec8() {
  core::DacSpec spec;
  spec.nbits = 8;
  spec.binary_bits = 3;
  return spec;
}

InlYieldIsJob small_is_job() {
  InlYieldIsJob j;
  j.spec = spec8();
  j.sigma_unit = 0.0259427;
  j.chips = 300;
  j.seed = 77;
  return j;
}

InlYieldStratJob small_strat_job() {
  InlYieldStratJob j;
  j.spec = spec8();
  j.sigma_unit = 0.0259427;
  j.strata = 4;
  j.chips = 300;
  j.seed = 77;
  return j;
}

InlYieldBridgeJob small_bridge_job() {
  InlYieldBridgeJob j;
  j.spec = spec8();
  j.sigma_unit = 0.0259427;
  return j;
}

TEST(RareJobKey, KindsNeverCollide) {
  // Same spec/sigma/seed everywhere: only the kind tag separates them.
  const auto k_is = job_key(small_is_job());
  const auto k_strat = job_key(small_strat_job());
  const auto k_bridge = job_key(small_bridge_job());
  EXPECT_NE(k_is, k_strat);
  EXPECT_NE(k_is, k_bridge);
  EXPECT_NE(k_strat, k_bridge);
  InlYieldJob plain;
  plain.spec = spec8();
  plain.sigma_unit = 0.0259427;
  plain.chips = 300;
  plain.seed = 77;
  EXPECT_NE(job_key(plain), k_is);
}

TEST(RareJobKey, EveryIsFieldChangesTheKey) {
  const auto base = job_key(small_is_job());
  InlYieldIsJob j = small_is_job();
  j.sigma_unit *= 1.0000001;
  EXPECT_NE(job_key(j), base) << "sigma_unit";
  j = small_is_job();
  j.sigma_scale = 2.3;
  EXPECT_NE(job_key(j), base) << "sigma_scale";
  j = small_is_job();
  j.modes += 1;
  EXPECT_NE(job_key(j), base) << "modes";
  j = small_is_job();
  j.chips += 1;
  EXPECT_NE(job_key(j), base) << "chips";
  j = small_is_job();
  j.seed += 1;
  EXPECT_NE(job_key(j), base) << "seed";
  j = small_is_job();
  j.limit = 0.6;
  EXPECT_NE(job_key(j), base) << "limit";
  j = small_is_job();
  j.ref = dac::InlReference::kEndpoint;
  EXPECT_NE(job_key(j), base) << "ref";
  j = small_is_job();
  j.spec.nbits = 10;
  EXPECT_NE(job_key(j), base) << "spec.nbits";
  EXPECT_EQ(job_key(small_is_job()), base);
}

TEST(RareJobKey, EveryStratAndBridgeFieldChangesTheKey) {
  const auto strat_base = job_key(small_strat_job());
  InlYieldStratJob s = small_strat_job();
  s.strata += 1;
  EXPECT_NE(job_key(s), strat_base) << "strata";
  s = small_strat_job();
  s.chips += 2;
  EXPECT_NE(job_key(s), strat_base) << "chips";
  s = small_strat_job();
  s.seed += 1;
  EXPECT_NE(job_key(s), strat_base) << "seed";
  s = small_strat_job();
  s.ref = dac::InlReference::kEndpoint;
  EXPECT_NE(job_key(s), strat_base) << "ref";

  const auto bridge_base = job_key(small_bridge_job());
  InlYieldBridgeJob b = small_bridge_job();
  b.sigma_unit *= 1.0000001;
  EXPECT_NE(job_key(b), bridge_base) << "sigma_unit";
  b = small_bridge_job();
  b.limit = 0.6;
  EXPECT_NE(job_key(b), bridge_base) << "limit";
}

TEST(RareRoundTrip, CachedIsResultBitIdenticalAndRecomputesNothing) {
  ScratchDir dir("roundtrip-rare-is");
  ExecutorOptions eo;
  eo.cache_dir = dir.str();
  const InlYieldIsJob job = small_is_job();
  const ExecResult first = JobExecutor(eo).run(job, job_key(job), 1);
  ASSERT_FALSE(first.cache_hit());
  const auto& fresh = std::get<IsYieldResult>(first.value);

  const auto direct = dac::inl_yield_is(
      spec8(), 0.0259427, 2.2, 8, 300, 77, 0.5, dac::InlReference::kBestFit,
      1);
  EXPECT_EQ(fresh.chips, direct.chips);
  EXPECT_EQ(fresh.fails, direct.fails);
  EXPECT_EQ(fresh.yield, direct.yield);
  EXPECT_EQ(fresh.ci95, direct.ci95);
  EXPECT_EQ(fresh.ess, direct.ess);
  EXPECT_EQ(fresh.low_ess, direct.low_ess);

  const std::int64_t evals0 = dac::mc_chips_evaluated();
  for (const int threads : {1, 3}) {
    const ExecResult again = JobExecutor(eo).run(job, job_key(job), threads);
    EXPECT_TRUE(again.cache_hit()) << threads << " threads";
    const auto& cached = std::get<IsYieldResult>(again.value);
    EXPECT_EQ(cached.fails, fresh.fails);
    EXPECT_EQ(cached.yield, fresh.yield);
    EXPECT_EQ(cached.ci95, fresh.ci95);
    EXPECT_EQ(cached.ess, fresh.ess);
    EXPECT_EQ(cached.ess_fraction, fresh.ess_fraction);
    EXPECT_EQ(cached.log_weight_max, fresh.log_weight_max);
    EXPECT_EQ(cached.log_weight_min, fresh.log_weight_min);
    EXPECT_EQ(cached.low_ess, fresh.low_ess);
  }
  EXPECT_EQ(dac::mc_chips_evaluated(), evals0)
      << "warm rare-event passes must not draw chips";
}

TEST(RareRoundTrip, CachedStratAndBridgeBitIdentical) {
  ScratchDir dir("roundtrip-rare-sb");
  ExecutorOptions eo;
  eo.cache_dir = dir.str();

  const InlYieldStratJob strat = small_strat_job();
  const ExecResult s1 = JobExecutor(eo).run(strat, job_key(strat), 2);
  ASSERT_FALSE(s1.cache_hit());
  const ExecResult s2 = JobExecutor(eo).run(strat, job_key(strat), 2);
  ASSERT_TRUE(s2.cache_hit());
  const auto& sf = std::get<StratYieldResult>(s1.value);
  const auto& sc = std::get<StratYieldResult>(s2.value);
  EXPECT_EQ(sc.chips, sf.chips);
  EXPECT_EQ(sc.pairs, sf.pairs);
  EXPECT_EQ(sc.strata, sf.strata);
  EXPECT_EQ(sc.yield, sf.yield);
  EXPECT_EQ(sc.ci95, sf.ci95);
  const auto s_direct = dac::inl_yield_stratified(
      spec8(), 0.0259427, 4, 300, 77, 0.5, dac::InlReference::kBestFit, 2);
  EXPECT_EQ(sf.yield, s_direct.yield);
  EXPECT_EQ(sf.pairs, s_direct.pairs);

  const InlYieldBridgeJob bridge = small_bridge_job();
  const ExecResult b1 = JobExecutor(eo).run(bridge, job_key(bridge), 2);
  ASSERT_FALSE(b1.cache_hit());
  const ExecResult b2 = JobExecutor(eo).run(bridge, job_key(bridge), 2);
  ASSERT_TRUE(b2.cache_hit());
  const auto& bf = std::get<BridgeYieldResult>(b1.value);
  const auto& bc = std::get<BridgeYieldResult>(b2.value);
  EXPECT_EQ(bc.yield, bf.yield);
  EXPECT_EQ(bc.c, bf.c);
  EXPECT_EQ(bc.sigma_inl, bf.sigma_inl);
  const auto b_direct = dac::inl_yield_bridge(spec8(), 0.0259427, 0.5);
  EXPECT_EQ(bf.yield, b_direct.yield);
}

TEST(RareRoundTrip, KindNamesAreStable) {
  EXPECT_EQ(kind_name(job_kind(Job(small_is_job()))), "inl_yield_is");
  EXPECT_EQ(kind_name(job_kind(Job(small_strat_job()))), "inl_yield_strat");
  EXPECT_EQ(kind_name(job_kind(Job(small_bridge_job()))), "inl_yield_bridge");
}

}  // namespace
}  // namespace csdac::runtime
