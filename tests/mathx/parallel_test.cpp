#include "mathx/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "mathx/alloc_counter.hpp"
#include "mathx/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace csdac::mathx {
namespace {

TEST(Parallel, ResolveThreads) {
  EXPECT_GE(resolve_threads(0), 1);  // hardware concurrency, at least 1
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_EQ(resolve_threads(7), 7);
}

TEST(Parallel, ForEachVisitsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 7}) {
    std::vector<std::atomic<int>> visits(257);
    for (auto& v : visits) v.store(0);
    const RunStats s =
        parallel_for_indexed(257, threads, [&](int, std::int64_t i) {
          visits[static_cast<std::size_t>(i)].fetch_add(1);
        });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
    EXPECT_EQ(s.evaluated, 257);
    EXPECT_EQ(s.skipped, 0);
    EXPECT_GE(s.threads, 1);
    EXPECT_GE(s.wall_seconds, 0.0);
  }
}

TEST(Parallel, ChunkedClaimingStillCoversAll) {
  std::vector<std::atomic<int>> visits(100);
  for (auto& v : visits) v.store(0);
  parallel_for_indexed(100, 4, [&](int, std::int64_t i) {
    visits[static_cast<std::size_t>(i)].fetch_add(1);
  }, /*chunk=*/7);
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(Parallel, PoolIsReusableAcrossJobs) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  std::atomic<std::int64_t> sum{0};
  for (int round = 0; round < 20; ++round) {
    pool.for_each_indexed(100,
                          [&](int, std::int64_t i) { sum.fetch_add(i); });
  }
  EXPECT_EQ(sum.load(), 20 * (99 * 100 / 2));
  // An empty range is a no-op.
  pool.for_each_indexed(0, [](int, std::int64_t) { FAIL(); });
}

TEST(Parallel, ThrowingCallbackReachesTheCallerAndTheEngineKeepsWorking) {
  const auto block = [](std::int64_t bad) {
    return [bad](int, std::int64_t lo, std::int64_t) -> std::int64_t {
      if (lo == bad) throw std::runtime_error("block failed");
      return 1;
    };
  };
  for (const std::int64_t bad : {0, 37, 99}) {
    EXPECT_THROW(run_blocks({.max_items = 100, .batch = 100}, 4, 1,
                            block(bad)),
                 std::runtime_error)
        << bad;
    const YieldRun ok =
        run_blocks({.max_items = 100, .batch = 100}, 4, 1, block(-1));
    EXPECT_EQ(ok.passed, 100) << bad;
  }
  // A pool that saw a throw runs its next job in full.
  ThreadPool pool(4);
  EXPECT_THROW(pool.for_each_indexed(100,
                                     [](int, std::int64_t i) {
                                       if (i == 50) {
                                         throw std::runtime_error("index");
                                       }
                                     }),
               std::runtime_error);
  std::atomic<int> visits{0};
  pool.for_each_indexed(100,
                        [&](int, std::int64_t) { visits.fetch_add(1); });
  EXPECT_EQ(visits.load(), 100);
}

TEST(Parallel, MapOutputIsIndexOrderedForAnyThreadCount) {
  const auto ref = parallel_map(
      64, 1, [](std::int64_t i) { return 3 * i + 1; });
  for (int threads : {2, 7}) {
    const auto got = parallel_map(
        64, threads, [](std::int64_t i) { return 3 * i + 1; });
    EXPECT_EQ(got, ref) << "threads " << threads;
  }
}

TEST(Parallel, WilsonHalfWidthProperties) {
  // Shrinks with n, symmetric in pass <-> fail, and non-degenerate at the
  // extremes (where the naive binomial CI collapses to zero).
  EXPECT_GT(wilson_half_width(50, 100), wilson_half_width(500, 1000));
  EXPECT_NEAR(wilson_half_width(30, 100), wilson_half_width(70, 100), 1e-12);
  EXPECT_GT(wilson_half_width(100, 100), 0.0);
  EXPECT_GT(wilson_half_width(0, 100), 0.0);
  EXPECT_EQ(wilson_half_width(0, 0), 1.0);
  // Large-n agreement with the naive binomial half-width at p = 0.5:
  // 1.96 * sqrt(0.25 / 10000) = 0.0098.
  EXPECT_NEAR(wilson_half_width(5000, 10000), 0.0098, 2e-4);
}

// A deterministic pass/fail item: pure function of the index.
bool item(std::int64_t i, std::uint64_t seed, double threshold) {
  Xoshiro256 rng = stream_rng(seed, static_cast<std::uint64_t>(i));
  return uniform01(rng) < threshold;
}

// Block body counting the items of [lo, hi) that pass `pred`.
template <class Pred>
BlockFn per_item(Pred pred) {
  return [pred](int, std::int64_t lo, std::int64_t hi) {
    std::int64_t passed = 0;
    for (std::int64_t i = lo; i < hi; ++i) passed += pred(i) ? 1 : 0;
    return passed;
  };
}

BlockFn item_blocks(std::uint64_t seed, double threshold) {
  return per_item([=](std::int64_t i) { return item(i, seed, threshold); });
}

TEST(Parallel, AdaptiveRunBitIdenticalAcrossThreadCountsAndReruns) {
  EarlyStopOptions opts;
  opts.max_items = 4000;
  opts.min_items = 128;
  opts.batch = 128;
  opts.ci_half_width = 0.02;
  const auto ref = run_blocks(opts, 1, 1, item_blocks(99, 0.9));
  for (int threads : {1, 2, 7}) {
    for (int rerun = 0; rerun < 2; ++rerun) {
      const auto got = run_blocks(opts, threads, 1, item_blocks(99, 0.9));
      EXPECT_EQ(got.evaluated, ref.evaluated)
          << "threads " << threads << " rerun " << rerun;
      EXPECT_EQ(got.passed, ref.passed);
      EXPECT_DOUBLE_EQ(got.yield, ref.yield);
      EXPECT_DOUBLE_EQ(got.ci95, ref.ci95);
    }
  }
}

TEST(Parallel, AdaptiveRunStopsEarlyOnResolvedYield) {
  // 90 % yield resolves to a 2 % half-width long before 10000 items.
  EarlyStopOptions opts;
  opts.max_items = 10000;
  opts.ci_half_width = 0.02;
  const auto r = run_blocks(opts, 2, 1, item_blocks(7, 0.9));
  EXPECT_TRUE(r.stats.early_stopped);
  EXPECT_LT(r.evaluated, opts.max_items);
  EXPECT_EQ(r.stats.skipped, opts.max_items - r.evaluated);
  EXPECT_LE(r.ci95, 0.02);
  EXPECT_NEAR(r.yield, 0.9, 3.0 * 0.02);
}

TEST(Parallel, AdaptiveRunNeverEvaluatesPastTheCap) {
  std::atomic<std::int64_t> max_index{-1};
  std::atomic<std::int64_t> calls{0};
  EarlyStopOptions opts;
  opts.max_items = 500;
  opts.min_items = 64;
  opts.batch = 64;
  opts.ci_half_width = 1e-9;  // unreachable: always runs to the cap
  const auto r = run_blocks(opts, 7, 1, per_item([&](std::int64_t i) {
    calls.fetch_add(1);
    std::int64_t seen = max_index.load();
    while (i > seen && !max_index.compare_exchange_weak(seen, i)) {
    }
    return item(i, 3, 0.5);
  }));
  EXPECT_FALSE(r.stats.early_stopped);
  EXPECT_EQ(r.evaluated, 500);
  EXPECT_EQ(calls.load(), 500);
  EXPECT_LT(max_index.load(), 500);
}

TEST(Parallel, AdaptiveRunRespectsMinItems) {
  EarlyStopOptions opts;
  opts.max_items = 4000;
  opts.min_items = 512;
  opts.batch = 128;
  opts.ci_half_width = 0.5;  // trivially satisfied from the first batch
  const auto r = run_blocks(opts, 2, 1, item_blocks(5, 0.99));
  EXPECT_GE(r.evaluated, 512);
}

TEST(Parallel, AdaptiveRunDisabledToleranceRunsToCap) {
  EarlyStopOptions opts;
  opts.max_items = 300;
  opts.ci_half_width = 0.0;
  const auto r = run_blocks(opts, 2, 1, item_blocks(11, 0.99));
  EXPECT_EQ(r.evaluated, 300);
  EXPECT_FALSE(r.stats.early_stopped);
}

TEST(Parallel, SingleThreadStatsMatchMultiThreadShape) {
  // threads=1 must report the same RunStats shape as any other count: a
  // one-entry per_thread_items vector holding all the work, utilization 1.
  const RunStats s = parallel_for_indexed(123, 1, [](int, std::int64_t) {});
  EXPECT_EQ(s.threads, 1);
  ASSERT_EQ(s.per_thread_items.size(), 1u);
  EXPECT_EQ(s.per_thread_items[0], 123);
  EXPECT_DOUBLE_EQ(s.utilization, 1.0);
  EXPECT_EQ(s.evaluated, 123);

  // Same guarantee on an adaptive run.
  const YieldRun r =
      run_blocks({.max_items = 80, .batch = 40, .ci_half_width = 0.0}, 1, 1,
                 per_item([](std::int64_t) { return true; }));
  EXPECT_EQ(r.stats.threads, 1);
  ASSERT_EQ(r.stats.per_thread_items.size(), 1u);
  EXPECT_EQ(r.stats.per_thread_items[0], 80);
  EXPECT_DOUBLE_EQ(r.stats.utilization, 1.0);
}

TEST(Parallel, EngineTelemetryReportsEveryRun) {
  // Fixed-count and adaptive runs go through the same loop, so each adds
  // one run and its evaluated items to the engine.* counters and emits one
  // engine.run span with one engine.wave child per wave.
  obs::Counter& runs = obs::Registry::global().counter("engine.runs");
  obs::Counter& items = obs::Registry::global().counter("engine.items");
  const std::int64_t runs0 = runs.value();
  const std::int64_t items0 = items.value();
  const YieldRun fixed = run_blocks({.max_items = 300, .batch = 300}, 2, 4,
                                    item_blocks(13, 0.9));
  EXPECT_EQ(runs.value(), runs0 + 1);
  EXPECT_EQ(items.value(), items0 + fixed.evaluated);

  obs::SpanCollector collector;
  obs::Tracer::global().add_sink(&collector);
  const YieldRun adaptive = run_blocks(
      {.max_items = 4000, .batch = 128, .ci_half_width = 0.02}, 2, 4,
      item_blocks(13, 0.9));
  obs::Tracer::global().remove_sink(&collector);
  ASSERT_TRUE(adaptive.stats.early_stopped);
  EXPECT_EQ(runs.value(), runs0 + 2);
  EXPECT_EQ(items.value(), items0 + fixed.evaluated + adaptive.evaluated);

  const std::vector<obs::SpanRecord> spans = collector.take();
  std::uint64_t run_id = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.name != "engine.run") continue;
    EXPECT_EQ(run_id, 0u) << "more than one engine.run span";
    run_id = s.id;
  }
  ASSERT_NE(run_id, 0u);
  std::int64_t waves = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.name != "engine.wave") continue;
    EXPECT_EQ(s.parent, run_id);
    ++waves;
  }
  EXPECT_EQ(waves * 128, adaptive.evaluated);
}

// ---- Worker-indexed / workspace runs -----------------------------------

TEST(Parallel, IndexedLoopTracksPerThreadItemsAndUtilization) {
  for (int threads : {1, 2, 7}) {
    std::vector<std::atomic<int>> visits(300);
    for (auto& v : visits) v.store(0);
    const RunStats s = parallel_for_indexed(
        300, threads, [&](int worker, std::int64_t i) {
          EXPECT_GE(worker, 0);
          EXPECT_LT(worker, threads);
          visits[static_cast<std::size_t>(i)].fetch_add(1);
        });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
    ASSERT_EQ(s.per_thread_items.size(), static_cast<std::size_t>(s.threads));
    EXPECT_EQ(std::accumulate(s.per_thread_items.begin(),
                              s.per_thread_items.end(), std::int64_t{0}),
              300);
    EXPECT_GT(s.utilization, 0.0);
    EXPECT_LE(s.utilization, 1.0);
  }
}

TEST(Parallel, WorkspaceLoopMatchesPlainLoopBitIdentically) {
  // The workspace path must be a pure optimization: same per-index results
  // as the plain loop, for any thread count.
  struct Scratch {
    std::vector<double> buf = std::vector<double>(64);
  };
  auto value = [](std::int64_t i) {
    Xoshiro256 rng = stream_rng(5, static_cast<std::uint64_t>(i));
    return normal(rng);
  };
  const auto ref = parallel_map(128, 1, value);
  for (int threads : {1, 2, 7}) {
    std::vector<double> out(128);
    const YieldRun r = run_blocks(
        {.max_items = 128, .batch = 128}, threads, 1,
        [] { return Scratch{}; },
        [&](Scratch& ws, std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            ws.buf[0] = value(i);  // scratch use must not leak across items
            out[static_cast<std::size_t>(i)] = ws.buf[0];
          }
          return std::int64_t{0};
        });
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], ref[i]) << "threads " << threads << " item " << i;
    }
    EXPECT_EQ(r.stats.evaluated, 128);
  }
}

TEST(Parallel, WorkspaceFactoryCalledAtMostOncePerWorker) {
  std::atomic<int> made{0};
  const int threads = 4;
  const YieldRun r = run_blocks(
      {.max_items = 1000, .batch = 1000}, threads, 1,
      [&] {
        made.fetch_add(1);
        return int{0};
      },
      [](int& ws, std::int64_t lo, std::int64_t hi) {
        ws += static_cast<int>(hi - lo);
        return std::int64_t{0};
      });
  EXPECT_GE(made.load(), 1);
  EXPECT_LE(made.load(), threads);
  EXPECT_EQ(r.stats.evaluated, 1000);
}

TEST(Parallel, WorkspaceLoopClampsWorkersToItems) {
  // 3 items on 8 threads: at most 3 workspaces, no idle-worker factories.
  std::atomic<int> made{0};
  run_blocks(
      {.max_items = 3, .batch = 3}, 8, 1,
      [&] {
        made.fetch_add(1);
        return int{0};
      },
      [](int&, std::int64_t, std::int64_t) { return std::int64_t{0}; });
  EXPECT_LE(made.load(), 3);
}

TEST(Parallel, AdaptiveWorkspaceRunBitIdenticalToPlain) {
  EarlyStopOptions opts;
  opts.max_items = 4000;
  opts.min_items = 128;
  opts.batch = 128;
  opts.ci_half_width = 0.02;
  const auto ref = run_blocks(opts, 1, 1, item_blocks(99, 0.9));
  struct Scratch {
    Xoshiro256 rng{0};
  };
  for (int threads : {1, 2, 7}) {
    const auto got = run_blocks(
        opts, threads, 1, [] { return Scratch{}; },
        [](Scratch& ws, std::int64_t lo, std::int64_t hi) {
          std::int64_t passed = 0;
          for (std::int64_t i = lo; i < hi; ++i) {
            stream_rng_into(ws.rng, 99, static_cast<std::uint64_t>(i));
            passed += uniform01(ws.rng) < 0.9 ? 1 : 0;
          }
          return passed;
        });
    EXPECT_EQ(got.evaluated, ref.evaluated) << "threads " << threads;
    EXPECT_EQ(got.passed, ref.passed) << "threads " << threads;
    EXPECT_DOUBLE_EQ(got.ci95, ref.ci95) << "threads " << threads;
  }
}

TEST(Parallel, WorkspaceSteadyStateIsAllocationFree) {
  // With a preallocating factory, a longer run must allocate no more bytes
  // than a short one: every per-item allocation would show up as a
  // difference. Single-threaded so the counts are exact; one uncounted run
  // first registers the engine metrics.
  struct Scratch {
    std::vector<double> buf = std::vector<double>(256);
  };
  auto run = [](std::int64_t n) {
    run_blocks({.max_items = n, .batch = n}, 1, 1, [] { return Scratch{}; },
               [](Scratch& ws, std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t i = lo; i < hi; ++i) {
                   ws.buf[static_cast<std::size_t>(i) % ws.buf.size()] =
                       static_cast<double>(i);
                 }
                 return std::int64_t{0};
               });
  };
  auto counted = [&run](std::int64_t n) {
    const ScopedAllocCounting counting;
    run(n);
    return counting.so_far();
  };
  run(1);
  const AllocCounts small = counted(64);
  const AllocCounts big = counted(4096);
  EXPECT_GT(small.bytes, 0) << "the factory's scratch went uncounted";
  EXPECT_EQ(big.bytes, small.bytes);
  EXPECT_EQ(big.count, small.count);
}

TEST(Parallel, RejectsBadArguments) {
  const BlockFn pass_all = per_item([](std::int64_t) { return true; });
  EarlyStopOptions bad;
  bad.max_items = 0;
  EXPECT_THROW(run_blocks(bad, 1, 1, pass_all), std::invalid_argument);
  bad = EarlyStopOptions{};
  bad.batch = 0;
  EXPECT_THROW(run_blocks(bad, 1, 1, pass_all), std::invalid_argument);
  bad = EarlyStopOptions{};
  bad.min_items = 0;
  EXPECT_THROW(run_blocks(bad, 1, 1, pass_all), std::invalid_argument);
  bad = EarlyStopOptions{};
  bad.ci_half_width = -0.1;
  EXPECT_THROW(run_blocks(bad, 1, 1, pass_all), std::invalid_argument);
  EXPECT_THROW(parallel_for_indexed(10, 2, [](int, std::int64_t) {},
                                    /*chunk=*/0),
               std::invalid_argument);
}

TEST(Parallel, BlockLoopCoversEveryIndexOnceWithShortTail) {
  // 23 items in blocks of 4: five full blocks + a 3-item tail. Every
  // index must be visited exactly once and per_thread_items must count
  // items, not blocks.
  for (int threads : {1, 2, 7}) {
    constexpr std::int64_t kN = 23;
    std::vector<std::atomic<int>> hits(kN);
    std::atomic<std::int64_t> tail_blocks{0};
    const YieldRun r = run_blocks(
        {.max_items = kN, .batch = kN}, threads, /*block=*/4,
        [&](int /*worker*/, std::int64_t lo, std::int64_t hi) {
          if (hi - lo < 4) tail_blocks.fetch_add(1);
          for (std::int64_t i = lo; i < hi; ++i) {
            hits[static_cast<std::size_t>(i)].fetch_add(1);
          }
          return hi - lo;
        });
    for (std::int64_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "threads " << threads << " index " << i;
    }
    EXPECT_EQ(tail_blocks.load(), 1);
    EXPECT_EQ(r.evaluated, kN);
    EXPECT_EQ(r.passed, kN);
    std::int64_t total = 0;
    for (auto c : r.stats.per_thread_items) total += c;
    EXPECT_EQ(total, kN) << "threads " << threads;
  }
}

TEST(Parallel, BlockLoopClampsThreadsToBlocks) {
  // 5 items in blocks of 4 = 2 blocks; 7 requested threads must clamp so
  // no worker idles in the stats.
  const YieldRun r = run_blocks({.max_items = 5, .batch = 5}, 7, /*block=*/4,
                                per_item([](std::int64_t) { return false; }));
  EXPECT_LE(r.stats.threads, 2);
  EXPECT_EQ(r.evaluated, 5);
}

TEST(Parallel, AdaptiveBlockRunMatchesPerItemRun) {
  // The stopping point and the estimate must not depend on the block
  // size or the thread count: waves are cut at the same batch boundaries
  // and a block never straddles one.
  EarlyStopOptions opts;
  opts.max_items = 4000;
  opts.min_items = 128;
  opts.batch = 100;  // not a multiple of the block sizes below
  opts.ci_half_width = 0.02;
  const auto ref = run_blocks(opts, 1, 1, item_blocks(99, 0.9));
  for (int threads : {1, 2, 7}) {
    for (std::int64_t block : {1, 2, 4}) {
      const auto got = run_blocks(opts, threads, block, item_blocks(99, 0.9));
      EXPECT_EQ(got.evaluated, ref.evaluated)
          << "threads " << threads << " block " << block;
      EXPECT_EQ(got.passed, ref.passed);
      EXPECT_DOUBLE_EQ(got.yield, ref.yield);
      EXPECT_DOUBLE_EQ(got.ci95, ref.ci95);
      EXPECT_EQ(got.stats.early_stopped, ref.stats.early_stopped);
      EXPECT_EQ(got.stats.skipped, ref.stats.skipped);
    }
  }
}

TEST(Parallel, AdaptiveBlockRunNeverStraddlesWaveBoundaries) {
  EarlyStopOptions opts;
  opts.max_items = 512;
  opts.min_items = 128;
  opts.batch = 128;
  opts.ci_half_width = 0.0;  // run to the cap
  std::atomic<bool> straddled{false};
  run_blocks(opts, 2, /*block=*/3, [&](int, std::int64_t lo, std::int64_t hi) {
    // With batch = 128 every block must live inside one 128-wave.
    if (lo / 128 != (hi - 1) / 128) straddled = true;
    return hi - lo;
  });
  EXPECT_FALSE(straddled.load());
}

TEST(Parallel, BlockVariantsRejectBadArguments) {
  EXPECT_THROW(run_blocks({.max_items = 10, .batch = 10}, 1, /*block=*/0,
                          item_blocks(1, 0.5)),
               std::invalid_argument);
  EarlyStopOptions opts;
  EXPECT_THROW(run_blocks(opts, 1, /*block=*/0, [] { return int{0}; },
                          [](int&, std::int64_t lo, std::int64_t hi) {
                            return hi - lo;
                          }),
               std::invalid_argument);
}

}  // namespace
}  // namespace csdac::mathx
