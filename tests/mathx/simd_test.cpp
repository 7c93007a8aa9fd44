#include "mathx/simd.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "lane_apply.hpp"
#include "mathx/rng.hpp"
#if defined(__SSE2__)
#include "mathx/simd_sse2.hpp"
#endif

namespace csdac::mathx {
namespace {

// Restores the dispatch choice a test forced.
struct BackendGuard {
  SimdBackend saved = simd_backend();
  ~BackendGuard() { simd_force_backend(saved); }
};

TEST(Simd, BackendNamesAndLaneWidths) {
  EXPECT_STREQ(simd_backend_name(SimdBackend::kScalar), "scalar");
  EXPECT_STREQ(simd_backend_name(SimdBackend::kSse2), "sse2");
  EXPECT_STREQ(simd_backend_name(SimdBackend::kAvx2), "avx2");
  EXPECT_EQ(simd_lane_width(SimdBackend::kScalar), 1);
  EXPECT_EQ(simd_lane_width(SimdBackend::kSse2), 2);
  EXPECT_EQ(simd_lane_width(SimdBackend::kAvx2), 4);
}

TEST(Simd, DetectIsStableAndBackendNeverExceedsIt) {
  EXPECT_EQ(simd_detect(), simd_detect());
  EXPECT_LE(simd_backend(), simd_detect());
#if defined(__x86_64__)
  // SSE2 is part of the x86-64 baseline.
  EXPECT_GE(simd_detect(), SimdBackend::kSse2);
#endif
}

TEST(Simd, ForceBackendOverridesAndClamps) {
  BackendGuard guard;
  EXPECT_EQ(simd_force_backend(SimdBackend::kScalar), SimdBackend::kScalar);
  EXPECT_EQ(simd_backend(), SimdBackend::kScalar);
  // Forcing wider than the CPU supports clamps to the detected backend.
  EXPECT_EQ(simd_force_backend(SimdBackend::kAvx2), simd_detect());
  EXPECT_EQ(simd_backend(), simd_detect());
}

TEST(Simd, ScalarOpsXoshiroMatchesStreamRng) {
  // The width-1 instantiation of the lane-parallel generator must
  // reproduce stream_rng exactly — same SplitMix64 expansion, same
  // xoshiro256++ step.
  for (std::uint64_t seed : {0ull, 42ull, ~0ull}) {
    for (std::uint64_t index : {0ull, 1ull, 999ull}) {
      Xoshiro256 ref = stream_rng(seed, index);
      Xoshiro256xN<ScalarOps> lanes;
      lanes.seed_streams(seed, index);
      for (int i = 0; i < 256; ++i) EXPECT_EQ(lanes.next(), ref());
    }
  }
}

TEST(Simd, ScalarOpsStrideSeedsTheRightStreams) {
  Xoshiro256xN<ScalarOps> lanes;
  lanes.seed_streams(7, 10, 2);  // lane 0 of a stride-2 seeding = stream 10
  Xoshiro256 ref = stream_rng(7, 10);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(lanes.next(), ref());
}

TEST(Simd, LaneStoreAndLoadMoveOneLaneOnly) {
  // store_lane hands a lane's stream to scalar code; load_lane puts the
  // advanced state back without touching the other lanes.
  Xoshiro256xN<ScalarOps> one;
  one.seed_streams(3, 0);
  Xoshiro256 g = one.store_lane(0);
  Xoshiro256 ref = stream_rng(3, 0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(g(), ref());
  one.load_lane(0, g);
  EXPECT_EQ(one.next(), ref());
#if defined(__SSE2__)
  for (int lane = 0; lane < 2; ++lane) {
    Xoshiro256xN<Sse2Ops> two;
    two.seed_streams(3, 0);
    Xoshiro256 h = two.store_lane(lane);
    for (int i = 0; i < 7; ++i) h();
    two.load_lane(lane, h);
    Xoshiro256 refs[2] = {stream_rng(3, 0), stream_rng(3, 1)};
    for (int i = 0; i < 7; ++i) refs[lane]();
    std::uint64_t out[2];
    Sse2Ops::ustoreu(out, two.next());
    EXPECT_EQ(out[0], refs[0]()) << "lane " << lane;
    EXPECT_EQ(out[1], refs[1]()) << "lane " << lane;
  }
#endif
}

TEST(Simd, ScalarOpsUniform01MatchesScalar) {
  Xoshiro256 ref = stream_rng(5, 3);
  Xoshiro256xN<ScalarOps> lanes;
  lanes.seed_streams(5, 3);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(uniform01_from_bits<ScalarOps>(lanes.next()), uniform01(ref));
  }
}

TEST(Simd, ScalarOpsNormalMatchesScalarSequence) {
  // Bit-identity of the batched ziggurat draw at width 1.
  for (std::uint64_t seed : {1ull, 99ull}) {
    Xoshiro256 ref = stream_rng(seed, 0);
    Xoshiro256xN<ScalarOps> lanes;
    lanes.seed_streams(seed, 0);
    double out[500];
    normal_batch_xN(lanes, 500, out);
    for (int i = 0; i < 500; ++i) EXPECT_EQ(out[i], normal(ref));
  }
}

#if defined(__SSE2__)

TEST(Simd, Sse2U64ToF64IsExactBelow2Pow53) {
  const std::uint64_t cases[2] = {0, 1};
  const std::uint64_t cases2[2] = {(1ull << 53) - 1, 0x001f3456789abcdeull};
  const std::uint64_t cases3[2] = {1ull << 32, (1ull << 32) - 1};
  for (const auto* c : {cases, cases2, cases3}) {
    double out[2];
    Sse2Ops::fstoreu(out, Sse2Ops::u64_to_f64_53(Sse2Ops::uloadu(c)));
    EXPECT_EQ(out[0], static_cast<double>(c[0]));
    EXPECT_EQ(out[1], static_cast<double>(c[1]));
  }
  // Random 53-bit patterns, exactly like the uniform01 path produces.
  Xoshiro256 rng(17);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t raw[2] = {rng() >> 11, rng() >> 11};
    double out[2];
    Sse2Ops::fstoreu(out, Sse2Ops::u64_to_f64_53(Sse2Ops::uloadu(raw)));
    EXPECT_EQ(out[0], static_cast<double>(raw[0]));
    EXPECT_EQ(out[1], static_cast<double>(raw[1]));
  }
}

TEST(Simd, Sse2XoshiroLanesMatchScalarStreams) {
  constexpr std::uint64_t kSeed = 2024;
  Xoshiro256 ref0 = stream_rng(kSeed, 10);
  Xoshiro256 ref1 = stream_rng(kSeed, 11);
  Xoshiro256xN<Sse2Ops> lanes;
  lanes.seed_streams(kSeed, 10);
  for (int i = 0; i < 256; ++i) {
    std::uint64_t out[2];
    Sse2Ops::ustoreu(out, lanes.next());
    EXPECT_EQ(out[0], ref0());
    EXPECT_EQ(out[1], ref1());
  }
}

TEST(Simd, Sse2NormalLanesMatchScalarSequences) {
  // Each lane must consume draws exactly when the scalar chip for that
  // stream does, also where a draw leaves the fast path.
  constexpr std::uint64_t kSeed = 7;
  Xoshiro256 ref0 = stream_rng(kSeed, 0);
  Xoshiro256 ref1 = stream_rng(kSeed, 1);
  Xoshiro256xN<Sse2Ops> lanes;
  lanes.seed_streams(kSeed, 0);
  std::vector<double> out(2 * 2000);
  normal_batch_xN(lanes, 2000, out.data());
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(out[2 * i], normal(ref0)) << "draw " << i;
    EXPECT_EQ(out[2 * i + 1], normal(ref1)) << "draw " << i;
  }
}

#endif  // __SSE2__

TEST(Simd, Avx2NormalLanesMatchScalarSequences) {
  // The widest backend: four lanes, each its own stream's mathx::normal
  // sequence.
  constexpr std::uint64_t kSeed = 7;
  constexpr int kCount = 2000;
  std::vector<double> out(4 * kCount);
  if (!testing::avx2_normals(kSeed, kCount, out.data())) {
    GTEST_SKIP() << "no AVX2 build or CPU";
  }
  for (int l = 0; l < 4; ++l) {
    Xoshiro256 ref = stream_rng(kSeed, static_cast<std::uint64_t>(l));
    for (int i = 0; i < kCount; ++i) {
      ASSERT_EQ(out[4 * i + l], normal(ref)) << "lane " << l << " draw " << i;
    }
  }
}

}  // namespace
}  // namespace csdac::mathx
