// Bit-identity of the chip-per-lane SIMD Monte-Carlo kernels against the
// allocating reference chain (chip_oracle.hpp), enforced with EXPECT_EQ (no
// tolerances): every backend the build provides must reproduce the chain's
// INL/DNL maxima and calibration verdicts exactly, and the full yield
// estimators must return
// identical results under CSDAC_SIMD=scalar and the widest backend, for
// any thread count and any chips-to-lanes remainder.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "chip_oracle.hpp"
#include "core/accuracy.hpp"
#include "core/spec.hpp"
#include "dac/calibration.hpp"
#include "dac/lane_kernel.hpp"
#include "dac/static_analysis.hpp"
#include "mathx/alloc_counter.hpp"
#include "mathx/rng.hpp"
#include "mathx/simd.hpp"
#include "obs/metrics.hpp"

namespace csdac::dac {
namespace {

using mathx::SimdBackend;

// Restores the dispatch choice a test forced.
struct BackendGuard {
  SimdBackend saved = mathx::simd_backend();
  ~BackendGuard() { mathx::simd_force_backend(saved); }
};

const SimdBackend kAllBackends[] = {SimdBackend::kScalar, SimdBackend::kSse2,
                                    SimdBackend::kAvx2};

core::DacSpec make_spec(int nbits, int binary_bits) {
  core::DacSpec spec;
  spec.nbits = nbits;
  spec.binary_bits = binary_bits;
  return spec;
}

// The spec matrix the block kernels are checked over: the paper's 12-bit
// case, a small 8-bit case, a fully-unary converter (b = 0), an almost
// fully-binary one (single unary source), and the minimum legal size.
std::vector<core::DacSpec> kernel_specs() {
  return {make_spec(12, 4), make_spec(8, 3), make_spec(6, 0),
          make_spec(6, 5), make_spec(2, 0)};
}

// The block kernels under test: every backend in a workspace of its own
// width, plus the width-1 kernel in the widest workspace — the route of a
// vector run's short blocks, which must read and write at its own lane
// stride.
struct KernelInput {
  const LaneKernel* k;
  int ws_lanes;
};

std::vector<KernelInput> kernel_inputs() {
  std::vector<KernelInput> v;
  for (SimdBackend b : kAllBackends) {
    if (const LaneKernel* k = lane_kernel(b)) v.push_back({k, k->lanes});
  }
  v.push_back({lane_kernel(SimdBackend::kScalar), kMaxSimdLanes});
  return v;
}

TEST(SimdEquivalence, DrawBitsMatchScalarStreams) {
  constexpr std::uint64_t kSeed = 31;
  for (SimdBackend b : kAllBackends) {
    const LaneKernel* k = lane_kernel(b);
    if (k == nullptr) continue;
    for (std::uint64_t stride : {1ull, 2ull}) {
      constexpr int kCount = 512;
      std::vector<std::uint64_t> out(
          static_cast<std::size_t>(kCount) * k->lanes);
      k->draw_bits(kSeed, /*index0=*/5, stride, /*normals=*/0, kCount,
                   out.data());
      for (int l = 0; l < k->lanes; ++l) {
        mathx::Xoshiro256 ref = mathx::stream_rng(kSeed, 5 + stride * l);
        for (int i = 0; i < kCount; ++i) {
          ASSERT_EQ(out[static_cast<std::size_t>(i) * k->lanes + l], ref())
              << simd_backend_name(b) << " lane " << l << " draw " << i;
        }
      }
    }
  }
}

TEST(SimdEquivalence, DrawNormalsMatchScalarSequences) {
  constexpr std::uint64_t kSeed = 77;
  for (SimdBackend b : kAllBackends) {
    const LaneKernel* k = lane_kernel(b);
    if (k == nullptr) continue;
    constexpr int kCount = 3000;  // long enough to hit rejection divergence
    std::vector<double> out(static_cast<std::size_t>(kCount) * k->lanes);
    k->draw_normals(kSeed, /*index0=*/0, /*stride=*/1, kCount, out.data());
    for (int l = 0; l < k->lanes; ++l) {
      mathx::Xoshiro256 ref = mathx::stream_rng(kSeed, l);
      for (int i = 0; i < kCount; ++i) {
        ASSERT_EQ(out[static_cast<std::size_t>(i) * k->lanes + l],
                  mathx::normal(ref))
            << simd_backend_name(b) << " lane " << l << " draw " << i;
      }
    }
  }
}

// Which path the scalar ziggurat takes on a draw's first raw word.
enum class ZigPath { kFast, kWedge, kTail };

ZigPath ziggurat_path(std::uint64_t w) {
  bool inside;
  mathx::detail::ziggurat_fast<mathx::ScalarOps>(
      mathx::detail::ziggurat_tables(), w, &w, inside);
  if (inside) return ZigPath::kFast;
  return (w & 0xff) == 0 ? ZigPath::kTail : ZigPath::kWedge;
}

TEST(SimdEquivalence, NormalBatchMatchesScalarForEveryCount) {
  // Batches of 1..300 rows on fresh streams: every row equals the lane's
  // scalar draw, the rows that leave the fast path (wedge and tail)
  // included, and the generator state after the batch is the scalar one.
  constexpr std::uint64_t kSeed = 4242;
  for (SimdBackend b : kAllBackends) {
    const LaneKernel* k = lane_kernel(b);
    if (k == nullptr) continue;
    const auto lanes = static_cast<std::size_t>(k->lanes);
    int paths[3] = {};
    for (int count = 1; count <= 300; ++count) {
      const std::uint64_t index0 = 1000 * static_cast<std::uint64_t>(count);
      std::vector<double> out(static_cast<std::size_t>(count) * lanes);
      std::vector<std::uint64_t> after(2 * lanes);
      k->draw_normals(kSeed, index0, /*stride=*/1, count, out.data());
      k->draw_bits(kSeed, index0, /*stride=*/1, count, 2, after.data());
      for (std::size_t l = 0; l < lanes; ++l) {
        mathx::Xoshiro256 ref = mathx::stream_rng(kSeed, index0 + l);
        for (int i = 0; i < count; ++i) {
          mathx::Xoshiro256 peek = ref;
          ++paths[static_cast<int>(ziggurat_path(peek()))];
          ASSERT_EQ(out[static_cast<std::size_t>(i) * lanes + l],
                    mathx::normal(ref))
              << simd_backend_name(b) << " count " << count << " lane " << l
              << " row " << i;
        }
        ASSERT_EQ(after[l], ref()) << simd_backend_name(b) << " count "
                                   << count << " lane " << l;
        ASSERT_EQ(after[lanes + l], ref());
      }
    }
    EXPECT_GT(paths[static_cast<int>(ZigPath::kWedge)], 100)
        << simd_backend_name(b);
    EXPECT_GT(paths[static_cast<int>(ZigPath::kTail)], 0)
        << simd_backend_name(b);
  }
}

TEST(SimdEquivalence, McBlockMatchesScalarChips) {
  constexpr std::uint64_t kSeed = 12345;
  constexpr double kSigma = 0.04;
  for (const KernelInput& in : kernel_inputs()) {
    const LaneKernel* k = in.k;
    const SimdBackend b = k->backend;
    SCOPED_TRACE(testing::Message() << "workspace lanes " << in.ws_lanes);
    for (const auto& spec : kernel_specs()) {
      ChipWorkspaceXN ws(spec, in.ws_lanes);
      for (auto ref : {InlReference::kEndpoint, InlReference::kBestFit}) {
        for (std::int64_t chip0 : {0, 7}) {
          StaticSummary out[kMaxSimdLanes];
          k->mc_values(ws, kSigma, kSeed, chip0, ref, out);
          bool inl_pass[kMaxSimdLanes], dnl_pass[kMaxSimdLanes];
          k->mc_block(ws, kSigma, kSeed, chip0, ref, ChipMetric::kInl, 0.5,
                      inl_pass);
          k->mc_block(ws, kSigma, kSeed, chip0, ref, ChipMetric::kDnl, 0.5,
                      dnl_pass);
          for (int l = 0; l < k->lanes; ++l) {
            const StaticMetrics want = analyze_transfer(
                oracle::chip_transfer(
                    spec, kSigma, kSeed,
                    static_cast<std::uint64_t>(chip0 + l)),
                ref);
            EXPECT_EQ(out[l].inl_max, want.inl_max)
                << simd_backend_name(b) << " nbits=" << spec.nbits
                << " b=" << spec.binary_bits << " chip " << chip0 + l;
            EXPECT_EQ(out[l].dnl_max, want.dnl_max)
                << simd_backend_name(b) << " nbits=" << spec.nbits
                << " b=" << spec.binary_bits << " chip " << chip0 + l;
            EXPECT_EQ(inl_pass[l], want.inl_max < 0.5)
                << simd_backend_name(b) << " nbits=" << spec.nbits
                << " b=" << spec.binary_bits << " chip " << chip0 + l;
            EXPECT_EQ(dnl_pass[l], want.dnl_max < 0.5)
                << simd_backend_name(b) << " nbits=" << spec.nbits
                << " b=" << spec.binary_bits << " chip " << chip0 + l;
          }
        }
      }
    }
  }
}

TEST(SimdEquivalence, CalBlockMatchesScalarChips) {
  constexpr std::uint64_t kSeed = 99;
  constexpr double kSigma = 0.06;
  constexpr double kLimit = 0.5;
  CalibrationOptions opts;
  opts.range_lsb = 2.0;
  opts.bits = 5;
  for (double noise : {0.0, 0.1}) {
    opts.measure_noise_lsb = noise;
    for (const KernelInput& in : kernel_inputs()) {
      const LaneKernel* k = in.k;
      const SimdBackend b = k->backend;
      SCOPED_TRACE(testing::Message() << "workspace lanes " << in.ws_lanes);
      for (const auto& spec : {make_spec(10, 3), make_spec(8, 0)}) {
        ChipWorkspaceXN ws(spec, in.ws_lanes);
        for (std::int64_t chip0 : {0, 13}) {
          bool before[kMaxSimdLanes], after[kMaxSimdLanes];
          k->cal_block(ws, kSigma, opts, kSeed, chip0, kLimit, before, after);
          for (int l = 0; l < k->lanes; ++l) {
            const oracle::CalChip want = oracle::cal_chip(
                spec, kSigma, opts, kSeed, chip0 + l, kLimit);
            EXPECT_EQ(before[l], want.pass_before)
                << simd_backend_name(b) << " noise=" << noise << " chip "
                << chip0 + l;
            EXPECT_EQ(after[l], want.pass_after)
                << simd_backend_name(b) << " noise=" << noise << " chip "
                << chip0 + l;
            // Pass flags alone barely see a mis-strided trim; the trimmed
            // weights themselves must match the reference chain.
            for (int i = 0; i < spec.num_unary(); ++i) {
              ASSERT_EQ(ws.trimmed_unary[static_cast<std::size_t>(i) *
                                             k->lanes + l],
                        want.trimmed.unary[static_cast<std::size_t>(i)])
                  << simd_backend_name(b) << " noise=" << noise << " chip "
                  << chip0 + l << " source " << i;
            }
          }
        }
      }
    }
  }
}

// The calibration trim rounds with std::round (half away from zero), which
// the vector trim rebuilds from basic operations: ties away from zero, the
// sign of a zero and of a small negative, and magnitudes around 2^52 where
// the rounding trick stops applying must all match it bit for bit.
TEST(SimdEquivalence, TrimRoundMatchesStdRound) {
  std::vector<double> xs = {0.5,  1.5,  2.5,  -0.5, -1.5, -2.5, 0.0, -0.0,
                            0.49999999999999994, -0.49999999999999994,
                            0.3,  -0.3, 1e-300, -1e-300, 7.25, -7.75};
  for (double k = 0.0; k < 40.0; k += 1.0) {
    xs.push_back(k + 0.5);
    xs.push_back(-(k + 0.5));
  }
  for (double e : {0x1p52 - 1.0, 0x1p52, 0x1p52 + 1.0, 0x1p52 - 0.5,
                   0x1p51 + 0.5, 0x1p53 + 2.0, 1e300}) {
    xs.push_back(e);
    xs.push_back(-e);
  }
  xs.push_back(std::numeric_limits<double>::infinity());
  xs.push_back(-std::numeric_limits<double>::infinity());
  for (SimdBackend b : kAllBackends) {
    const LaneKernel* k = lane_kernel(b);
    if (k == nullptr || b > mathx::simd_detect()) continue;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      double in[kMaxSimdLanes], out[kMaxSimdLanes];
      // Each value in every lane position, the others filled with
      // neighbours, so a lane mix-up shows.
      for (int l = 0; l < k->lanes; ++l) in[l] = xs[(i + l) % xs.size()];
      k->round_half_away(in, out);
      for (int l = 0; l < k->lanes; ++l) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(out[l]),
                  std::bit_cast<std::uint64_t>(std::round(in[l])))
            << simd_backend_name(b) << " lane " << l << " x=" << in[l];
      }
    }
  }
}

// The rare-event blocks have no scalar chip body of their own: the width-1
// kernel is their reference, so every wider lane must reproduce it at its
// own chip — the likelihood ratio, the pass/fail flags, and the tilted
// (IS) or stratified (second pair member) unary weights left in the
// workspace.
TEST(SimdEquivalence, IsAndStratBlocksMatchWidthOne) {
  constexpr std::uint64_t kSeed = 4242;
  constexpr double kSigma = 0.05;
  const LaneKernel* k1 = lane_kernel(SimdBackend::kScalar);
  for (const KernelInput& in : kernel_inputs()) {
    const LaneKernel* k = in.k;
    const SimdBackend b = k->backend;
    SCOPED_TRACE(testing::Message() << "workspace lanes " << in.ws_lanes);
    for (const auto& spec : kernel_specs()) {
      const int nu = spec.num_unary();
      // Cosine rows over the unary sources and a tapered tilt, as
      // inl_yield_is builds them (any fixed values pin the arithmetic).
      const int modes = std::min(3, nu - 1);
      std::vector<double> basis(static_cast<std::size_t>(std::max(modes, 1)) *
                                static_cast<std::size_t>(nu));
      for (int m = 0; m < std::max(modes, 1); ++m) {
        for (int i = 0; i < nu; ++i) {
          basis[static_cast<std::size_t>(m) * nu + i] =
              std::sqrt(2.0 / nu) * std::cos((m + 1) * M_PI * (i + 0.5) / nu);
        }
      }
      std::vector<double> log_g, half_g2m1, g_minus_1;
      for (int m = 0; m < modes; ++m) {
        const double g = 1.0 + 1.5 / (m + 1);
        log_g.push_back(std::log(g));
        half_g2m1.push_back(0.5 * (g * g - 1.0));
        g_minus_1.push_back(g - 1.0);
      }
      ChipWorkspaceXN ws(spec, in.ws_lanes);
      ChipWorkspaceXN ws1(spec, 1);
      const auto stride = static_cast<std::size_t>(k->lanes);
      for (auto ref : {InlReference::kEndpoint, InlReference::kBestFit}) {
        RareRun run;
        run.sigma_unit = kSigma;
        run.seed = kSeed;
        run.inl_limit = 0.5;
        run.ref = ref;
        run.basis = basis.data();
        run.modes = modes;
        run.log_g = log_g.data();
        run.half_g2m1 = half_g2m1.data();
        run.g_minus_1 = g_minus_1.data();
        run.strata = 4;
        for (std::int64_t chip0 : {0, 7}) {
          double log_w[kMaxSimdLanes];
          unsigned char fail[kMaxSimdLanes];
          k->is_block(ws, run, chip0, log_w, fail);
          for (int l = 0; l < k->lanes; ++l) {
            double want_w;
            unsigned char want_fail;
            k1->is_block(ws1, run, chip0 + l, &want_w, &want_fail);
            EXPECT_EQ(log_w[l], want_w)
                << simd_backend_name(b) << " nbits=" << spec.nbits
                << " b=" << spec.binary_bits << " IS chip " << chip0 + l;
            EXPECT_EQ(fail[l], want_fail)
                << simd_backend_name(b) << " nbits=" << spec.nbits
                << " b=" << spec.binary_bits << " IS chip " << chip0 + l;
            for (int i = 0; i < nu; ++i) {
              ASSERT_EQ(ws.unary[static_cast<std::size_t>(i) * stride + l],
                        ws1.unary[static_cast<std::size_t>(i)])
                  << simd_backend_name(b) << " IS chip " << chip0 + l
                  << " source " << i;
            }
          }
          if (nu < 2) continue;  // stratification needs a thermometer
          unsigned char pass[2 * kMaxSimdLanes];
          k->strat_block(ws, run, chip0, pass);
          for (int l = 0; l < k->lanes; ++l) {
            unsigned char want[2];
            k1->strat_block(ws1, run, chip0 + l, want);
            for (int m = 0; m < 2; ++m) {
              EXPECT_EQ(pass[2 * l + m], want[m])
                  << simd_backend_name(b) << " nbits=" << spec.nbits
                  << " b=" << spec.binary_bits << " pair " << chip0 + l
                  << " member " << m;
            }
            for (int i = 0; i < nu; ++i) {
              ASSERT_EQ(ws.unary[static_cast<std::size_t>(i) * stride + l],
                        ws1.unary[static_cast<std::size_t>(i)])
                  << simd_backend_name(b) << " pair " << chip0 + l
                  << " source " << i;
            }
          }
        }
      }
    }
  }
}

// The lane workspace holds no per-code array: the kernels form each level
// from the unary prefix sums and the 2^b binary partial sums, and the
// calibration trim works in the draw's own rows. A 20-bit
// converter's workspace therefore stays far below a single 2^20-code lane
// array (32 MiB at four lanes).
TEST(LaneWorkspace, DoesNotScaleWithCodeCount) {
  const core::DacSpec spec = make_spec(20, 10);
  const mathx::ScopedAllocCounting counting;
  const ChipWorkspaceXN ws(spec, 4);
  EXPECT_LT(counting.so_far().bytes, std::int64_t{1} << 20);
  EXPECT_EQ(ws.lanes, 4);
}

TEST(SimdEquivalence, ActiveKernelFollowsForcedBackend) {
  BackendGuard guard;
  mathx::simd_force_backend(SimdBackend::kScalar);
  const LaneKernel& k = active_lane_kernel();
  EXPECT_EQ(k.backend, SimdBackend::kScalar);
  EXPECT_EQ(k.lanes, 1);
  // The widest kernel the dispatch can reach never exceeds the detection.
  mathx::simd_force_backend(SimdBackend::kAvx2);
  EXPECT_LE(active_lane_kernel().backend, mathx::simd_detect());
}

// simd.dispatch.<backend> counts dispatched runs, not workers or blocks:
// one inl_yield_mc run on three workers, with a short last block, adds
// exactly one to the active kernel's counter and nothing to the others.
TEST(SimdEquivalence, InlYieldRunRecordsOneDispatch) {
  const core::DacSpec spec = make_spec(8, 3);
  const double sigma = core::unit_sigma_spec(spec.nbits, spec.inl_yield);
  auto dispatched = [] {
    std::vector<std::int64_t> v;
    for (SimdBackend b : kAllBackends) {
      v.push_back(obs::Registry::global()
                      .counter(std::string("simd.dispatch.") +
                               mathx::simd_backend_name(b))
                      .value());
    }
    return v;
  };
  BackendGuard guard;
  for (SimdBackend b : kAllBackends) {
    if (b > mathx::simd_detect()) continue;
    SCOPED_TRACE(mathx::simd_backend_name(b));
    mathx::simd_force_backend(b);
    const SimdBackend ran = active_lane_kernel().backend;
    const std::vector<std::int64_t> before = dispatched();
    (void)inl_yield_mc(spec, sigma, 37, 5, 0.5, InlReference::kBestFit, 3);
    const std::vector<std::int64_t> after = dispatched();
    for (std::size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(after[i] - before[i], kAllBackends[i] == ran ? 1 : 0)
          << mathx::simd_backend_name(kAllBackends[i]);
    }
  }
}

// Full-path equivalence: every yield estimator must return bit-identical
// numbers under the scalar dispatch and the widest available backend, for
// thread counts {1, 2, 7} and chip counts exercising every remainder mod
// 4 (including runs smaller than one vector block).
class SimdYieldEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    widest_ = mathx::simd_force_backend(mathx::simd_detect());
    if (widest_ == SimdBackend::kScalar) {
      GTEST_SKIP() << "no vector backend on this CPU/build";
    }
  }
  void TearDown() override { mathx::simd_force_backend(guard_.saved); }

  template <class Fn>
  void expect_backends_match(Fn run) {
    mathx::simd_force_backend(SimdBackend::kScalar);
    const auto scalar = run();
    mathx::simd_force_backend(widest_);
    const auto simd = run();
    ASSERT_EQ(scalar.size(), simd.size());
    for (std::size_t i = 0; i < scalar.size(); ++i) {
      EXPECT_EQ(scalar[i], simd[i]) << "value " << i;
    }
  }

  BackendGuard guard_;
  SimdBackend widest_ = SimdBackend::kScalar;
  core::DacSpec spec_ = make_spec(10, 3);
  static constexpr double kSigma = 0.03;
  static constexpr std::uint64_t kSeed = 2026;
};

constexpr int kChipCounts[] = {1, 2, 3, 5, 7, 101};
constexpr int kThreadCounts[] = {1, 2, 7};

TEST_F(SimdYieldEquivalence, InlYield) {
  expect_backends_match([&] {
    std::vector<double> v;
    for (int threads : kThreadCounts) {
      for (int chips : kChipCounts) {
        const auto y = inl_yield_mc(spec_, kSigma, chips, kSeed, 0.5,
                                    InlReference::kBestFit, threads);
        v.push_back(y.yield);
        v.push_back(y.pass);
        v.push_back(y.chips);
        v.push_back(y.ci95);
      }
    }
    return v;
  });
}

TEST_F(SimdYieldEquivalence, DnlYield) {
  expect_backends_match([&] {
    std::vector<double> v;
    for (int threads : kThreadCounts) {
      for (int chips : kChipCounts) {
        const auto y = dnl_yield_mc(spec_, kSigma, chips, kSeed, 0.5, threads);
        v.push_back(y.yield);
        v.push_back(y.pass);
        v.push_back(y.chips);
      }
    }
    return v;
  });
}

TEST_F(SimdYieldEquivalence, AdaptiveInlYield) {
  expect_backends_match([&] {
    std::vector<double> v;
    for (int threads : kThreadCounts) {
      AdaptiveMcOptions opts;
      opts.max_chips = 700;
      opts.min_chips = 128;
      opts.batch = 128;
      opts.ci_half_width = 0.03;
      opts.threads = threads;
      const auto y = inl_yield_mc_adaptive(spec_, kSigma, opts, kSeed, 0.5,
                                           InlReference::kBestFit);
      v.push_back(y.yield);
      v.push_back(y.pass);
      v.push_back(y.chips);  // early-stop point must match too
      v.push_back(y.ci95);
    }
    return v;
  });
}

TEST_F(SimdYieldEquivalence, CalibrationYield) {
  CalibrationOptions opts;
  opts.range_lsb = 2.0;
  opts.bits = 5;
  opts.measure_noise_lsb = 0.05;
  expect_backends_match([&] {
    std::vector<double> v;
    for (int threads : kThreadCounts) {
      for (int chips : kChipCounts) {
        const auto y = calibration_yield_mc(spec_, 0.08, opts, chips, kSeed,
                                            0.5, threads);
        v.push_back(y.yield_before);
        v.push_back(y.yield_after);
        v.push_back(y.chips);
      }
    }
    return v;
  });
}

TEST_F(SimdYieldEquivalence, SimdPathAgreesWithLegacyReference) {
  // The vector path must also match the allocating reference chain, not
  // just the forced-scalar dispatch.
  mathx::simd_force_backend(widest_);
  const auto fast = inl_yield_mc(spec_, kSigma, 101, kSeed, 0.5,
                                 InlReference::kBestFit, 2);
  const auto legacy = oracle::inl_yield_mc_legacy(spec_, kSigma, 101, kSeed,
                                                  0.5, InlReference::kBestFit);
  EXPECT_EQ(fast.yield, legacy.yield);
  EXPECT_EQ(fast.pass, legacy.pass);
  // Sanity: the chosen sigma produces a mixed population, so the
  // equivalence above is not a trivial all-pass/all-fail comparison.
  EXPECT_GT(fast.pass, 0);
  EXPECT_LT(fast.pass, fast.chips);
}

// The 12-bit smoke configuration: the paper's design point at the eq. (1)
// unit sigma, 300 INL chips, and 150 calibration chips at 4x that sigma,
// seed 1000, one thread. Under every backend the CPU offers (scalar, SSE2,
// AVX2) the product estimators must equal the serial reference chain pass
// for pass, so no two backends can disagree either. At the eq. (1) sigma
// every INL chip passes (and still all 300 at 2x), so the same 300 chips
// also run at 3x it, where 13 fail: the INL half then sees a kernel that
// misjudges a failing chip as well as a passing one.
TEST(ChipOracle, BenchSmokeConfigurationMatchesPassForPass) {
  const core::DacSpec spec;
  const double sigma = core::unit_sigma_spec(spec.nbits, spec.inl_yield);
  constexpr std::uint64_t kSeed = 1000;
  const auto inl_ref = oracle::inl_yield_mc_legacy(spec, sigma, 300, kSeed);
  const auto wide_ref =
      oracle::inl_yield_mc_legacy(spec, 3.0 * sigma, 300, kSeed);
  const CalibrationOptions opts;
  const auto cal_ref =
      oracle::calibration_yield_mc_legacy(spec, 4.0 * sigma, opts, 150, kSeed);

  BackendGuard guard;
  for (SimdBackend b : kAllBackends) {
    if (b > mathx::simd_detect()) continue;
    SCOPED_TRACE(mathx::simd_backend_name(b));
    ASSERT_EQ(mathx::simd_force_backend(b), b);

    const auto inl = inl_yield_mc(spec, sigma, 300, kSeed, 0.5,
                                  InlReference::kBestFit, 1);
    EXPECT_EQ(inl.chips, inl_ref.chips);
    EXPECT_EQ(inl.pass, inl_ref.pass);
    EXPECT_EQ(inl.yield, inl_ref.yield);
    EXPECT_EQ(inl.ci95, inl_ref.ci95);

    const auto wide = inl_yield_mc(spec, 3.0 * sigma, 300, kSeed, 0.5,
                                   InlReference::kBestFit, 1);
    EXPECT_EQ(wide.chips, wide_ref.chips);
    EXPECT_EQ(wide.pass, wide_ref.pass);
    EXPECT_EQ(wide.yield, wide_ref.yield);
    EXPECT_EQ(wide.ci95, wide_ref.ci95);
    EXPECT_LT(wide.pass, wide.chips);
    EXPECT_GT(wide.pass, 0);

    const auto cal =
        calibration_yield_mc(spec, 4.0 * sigma, opts, 150, kSeed, 0.5, 1);
    EXPECT_EQ(cal.chips, cal_ref.chips);
    EXPECT_EQ(cal.yield_before, cal_ref.yield_before);
    EXPECT_EQ(cal.yield_after, cal_ref.yield_after);
  }
}

}  // namespace
}  // namespace csdac::dac
