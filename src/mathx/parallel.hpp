// Shared parallel Monte-Carlo engine: a reusable thread pool with
// deterministic work partitioning plus an adaptive early-stopping yield
// estimator. Every MC consumer in the library (INL/DNL yield, calibrated
// yield, rare-event yield, dynamic-spectrum yield, design-space sweeps)
// routes through this so that (a) results are bit-identical for any thread
// count — each item is a pure function of its index, typically via a
// `stream_rng(seed, index)` substream — and (b) yield loops stop burning
// chips once the binomial confidence interval has resolved the answer.
//
// There is one engine loop, run_blocks: items [0, max_items) are cut into
// CI waves of opts.batch items and each wave into blocks of up to `block`
// items, and fn(worker, lo, hi) runs once per block and returns how many of
// its items passed. A fixed-count run is the adaptive run that cannot stop
// early, {.max_items = n, .batch = n}. The workspace overload adds an
// allocation-free hot path: a per-worker workspace (preallocated buffers)
// is built once by a caller-supplied factory and reused for every block
// that worker claims. parallel_for_indexed (a per-item loop) and
// parallel_map are thin wrappers over the same loop. RunStats carries the
// perf counters: items/s and per-worker item counts (utilization). A
// caller that wants a run's allocations wraps it in a
// mathx::ScopedAllocCounting (mathx/alloc_counter.hpp).
#pragma once

#include <atomic>
#include <concepts>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace csdac::mathx {

/// Resolves a user-facing thread-count knob: 0 means "use the hardware
/// concurrency", anything else is clamped to >= 1. Negative counts are the
/// caller's error to reject (the historical yield_mc API throws).
int resolve_threads(int threads);

/// Worker count the engine will actually use for an n-item job: never more
/// workers than items.
inline int clamp_threads_to_items(int threads, std::int64_t n) {
  const std::int64_t t = resolve_threads(threads);
  const std::int64_t cap = n > 1 ? n : 1;
  return static_cast<int>(t < cap ? t : cap);
}

/// Observability record returned by every engine run. This is the per-run
/// view; the same quantities also flow into the process-wide obs::Registry
/// (engine.runs / engine.items / engine.waves / engine.early_stops counters
/// and the engine.run_us / engine.wave_us latency histograms), so RunStats
/// is a thin per-call facade over the shared observability layer. Every
/// run fills threads and a threads-sized per_thread_items vector —
/// including the single-thread path, which reports threads = 1 with a
/// one-entry vector.
struct RunStats {
  std::int64_t evaluated = 0;  ///< items actually run
  std::int64_t skipped = 0;    ///< budgeted items not run (early stop)
  int threads = 1;             ///< worker count actually used (incl. caller)
  bool early_stopped = false;  ///< estimator stopped before the cap
  double wall_seconds = 0.0;
  double items_per_second = 0.0;  ///< evaluated / wall_seconds
  /// Items run by each worker (index 0 = the calling thread).
  std::vector<std::int64_t> per_thread_items;
  /// Load balance: mean(per_thread_items) / max(per_thread_items), 1 =
  /// perfectly balanced.
  double utilization = 1.0;
  /// Result-cache counters, filled by the runtime layer when a run is
  /// served through the persistent job cache (0 otherwise). A cache hit
  /// leaves evaluated == 0: the result was decoded, not recomputed.
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_evictions = 0;
};

/// Persistent pool of `threads - 1` workers; the calling thread is worker 0,
/// so `ThreadPool(1)` spawns nothing and runs inline. The ASSIGNMENT of
/// indices to threads is racy by design; a deterministic overall result only
/// requires fn(worker, i) to depend on nothing but i (write to slot i,
/// derive randomness from (seed, i)).
class ThreadPool {
 public:
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total worker count including the calling thread.
  int threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(worker, i) for every i in [0, n); blocks until done.
  /// If fn throws, no further indices are claimed and the first exception
  /// is rethrown here once every worker has stopped.
  /// Threads claim one index at a time. The worker id in [0, threads()) —
  /// 0 is the calling thread, 1.. are the pool workers — is what lets a
  /// caller attach per-worker state (a Monte-Carlo workspace) that is
  /// reused across every index the worker claims.
  void for_each_indexed(std::int64_t n,
                        const std::function<void(int, std::int64_t)>& fn);

 private:
  void worker_loop(int worker);
  void work(int worker);  ///< claim and run indices of the current job

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;  ///< bumped per job; wakes the workers
  int busy_ = 0;                  ///< workers still on the current job
  bool stop_ = false;

  // Current job (valid while busy_ > 0).
  std::atomic<std::int64_t> next_{0};
  std::int64_t end_ = 0;
  const std::function<void(int, std::int64_t)>* fn_ = nullptr;
  std::exception_ptr error_;  ///< first throw of the current job
  /// Span id the dispatching thread had open when it launched the current
  /// job; worker spans nest under it (0 = tracing off or no open span).
  std::uint64_t span_parent_ = 0;
};

/// Wilson score interval half-width for `pass` successes in `n` trials at
/// confidence z (default two-sided 95 %). Well-behaved at yield 0/1 where
/// the naive binomial half-width collapses to zero.
double wilson_half_width(std::int64_t pass, std::int64_t n,
                         double z = 1.959963984540054);

/// Adaptive early-stopping controls. The CI is checked only at batch
/// boundaries, and the batch size is independent of the thread count, so
/// the stopping point — and therefore the estimate — is bit-identical for
/// any number of threads.
struct EarlyStopOptions {
  std::int64_t max_items = 10000;  ///< hard cap on items evaluated
  std::int64_t min_items = 128;    ///< never stop before this many
  std::int64_t batch = 128;        ///< CI checked every `batch` items
  /// Stop once the Wilson 95 % half-width <= this; 0 disables early
  /// stopping (the run then always evaluates max_items).
  double ci_half_width = 0.0;
};

/// Result of an engine run: the pass/fail (yield) tally plus the run record.
struct YieldRun {
  std::int64_t evaluated = 0;  ///< items actually evaluated (<= max_items)
  std::int64_t passed = 0;
  double yield = 0.0;  ///< passed / evaluated
  double ci95 = 0.0;   ///< Wilson 95 % half-width at the stopping point
  RunStats stats;
};

/// Block body: runs items [lo, hi) on `worker` and returns how many passed.
using BlockFn =
    std::function<std::int64_t(int worker, std::int64_t lo, std::int64_t hi)>;

/// The engine loop. Runs waves of opts.batch items (the last wave may be
/// short) until the Wilson CI criterion is met or max_items is reached;
/// each wave is split into consecutive blocks of up to `block` items and
/// fn(worker, lo, hi) runs once per block. Blocks never straddle a wave
/// boundary, so a wave's last block may be short — the SIMD callers see at
/// most one short block per wave — and the stopping point is the same for
/// any block size and thread count. Workers are clamped to the blocks of a
/// full run. Every run emits one engine.run span (attrs items, threads,
/// block, evaluated, early_stopped) with one engine.wave child per wave,
/// and adds to the engine.* metrics.
YieldRun run_blocks(const EarlyStopOptions& opts, int threads,
                    std::int64_t block, const BlockFn& fn);

/// Workspace-factory run: each worker lazily builds one workspace with
/// make_ws() (called at most once per worker, concurrently — the factory
/// must be thread-safe) and reuses it for every block it claims:
/// fn(workspace&, lo, hi) -> passed. With a factory that preallocates all
/// scratch, the steady state allocates nothing. Bit-identical to the plain
/// run as long as fn's RESULT depends only on [lo, hi) (scratch contents
/// may differ).
template <typename MakeWs, typename Fn>
  requires std::invocable<MakeWs&>
YieldRun run_blocks(const EarlyStopOptions& opts, int threads,
                    std::int64_t block, MakeWs&& make_ws, Fn&& fn) {
  using Ws = decltype(make_ws());
  const std::int64_t nblocks =
      block > 0 ? (opts.max_items + block - 1) / block : opts.max_items;
  const int nthreads = clamp_threads_to_items(threads, nblocks);
  std::vector<std::optional<Ws>> ws(static_cast<std::size_t>(nthreads));
  const BlockFn wrapped = [&](int worker, std::int64_t lo, std::int64_t hi) {
    auto& slot = ws[static_cast<std::size_t>(worker)];
    if (!slot) slot.emplace(make_ws());
    return static_cast<std::int64_t>(fn(*slot, lo, hi));
  };
  return run_blocks(opts, nthreads, block, wrapped);
}

/// Per-item loop: fn(worker, i) for i in [0, n), workers claiming `chunk`
/// consecutive items at a time. A fixed-count run_blocks with block =
/// chunk; returns its run record.
RunStats parallel_for_indexed(std::int64_t n, int threads,
                              const std::function<void(int, std::int64_t)>& fn,
                              std::int64_t chunk = 1);

/// Parallel map into a pre-sized vector: out[i] = fn(i). The output order
/// is by index, so the result is thread-count independent for pure fn.
template <typename F>
auto parallel_map(std::int64_t n, int threads, F&& fn,
                  RunStats* stats = nullptr, std::int64_t chunk = 1)
    -> std::vector<decltype(fn(std::int64_t{}))> {
  using T = decltype(fn(std::int64_t{}));
  std::vector<T> out(static_cast<std::size_t>(n));
  const RunStats rs = parallel_for_indexed(
      n, threads,
      [&](int, std::int64_t i) { out[static_cast<std::size_t>(i)] = fn(i); },
      chunk);
  if (stats) *stats = rs;
  return out;
}

}  // namespace csdac::mathx
