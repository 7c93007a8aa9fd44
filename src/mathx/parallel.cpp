#include "mathx/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace csdac::mathx {

namespace {

/// Engine instruments in the process-wide registry, resolved once. The
/// per-item cost stays on RunStats' plain per-thread vector; the registry
/// sees whole-run aggregates (a few adds per run/wave, never per item).
struct EngineMetrics {
  obs::Counter& runs;
  obs::Counter& items;
  obs::Counter& waves;
  obs::Counter& early_stops;
  obs::Histogram& run_us;
  obs::Histogram& wave_us;

  static EngineMetrics& get() {
    static EngineMetrics m{
        obs::Registry::global().counter(
            "engine.runs", "parallel engine runs (run_blocks calls)"),
        obs::Registry::global().counter(
            "engine.items", "items evaluated by the parallel engine"),
        obs::Registry::global().counter(
            "engine.waves",
            "engine waves (CI-checked batches; a fixed-count run is one)"),
        obs::Registry::global().counter(
            "engine.early_stops", "adaptive runs stopped before the cap"),
        obs::Registry::global().histogram(
            "engine.run_us", "parallel engine run wall time [us]"),
        obs::Registry::global().histogram(
            "engine.wave_us", "engine wave wall time [us]"),
    };
    return m;
  }
};

}  // namespace

int resolve_threads(int threads) {
  if (threads == 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  return std::max(threads, 1);
}

ThreadPool::ThreadPool(int threads) {
  const int n = resolve_threads(threads);
  workers_.reserve(static_cast<std::size_t>(n - 1));
  for (int t = 0; t + 1 < n; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    {
      // Per-worker span, nested under whatever span the dispatching
      // thread had open (no-op when no sink is registered).
      obs::ScopedSpan span("engine.worker", span_parent_);
      span.attr("worker", worker);
      work(worker);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --busy_;
    }
    cv_done_.notify_one();
  }
}

void ThreadPool::work(int worker) {
  try {
    for (;;) {
      const std::int64_t i = next_.fetch_add(1);
      if (i >= end_) return;
      (*fn_)(worker, i);
    }
  } catch (...) {
    // Keep the first error for the caller and let no one claim more.
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = std::current_exception();
    next_.store(end_);
  }
}

void ThreadPool::for_each_indexed(
    std::int64_t n, const std::function<void(int, std::int64_t)>& fn) {
  if (n <= 0) return;
  if (workers_.empty()) {
    obs::ScopedSpan span("engine.worker");
    span.attr("worker", 0);
    for (std::int64_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    next_.store(0);
    end_ = n;
    fn_ = &fn;
    busy_ = static_cast<int>(workers_.size());
    span_parent_ = obs::Tracer::current_span_id();
    ++generation_;
  }
  cv_start_.notify_all();
  {
    obs::ScopedSpan span("engine.worker");  // calling thread is worker 0
    span.attr("worker", 0);
    work(0);
  }
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [&] { return busy_ == 0; });
  fn_ = nullptr;
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

double wilson_half_width(std::int64_t pass, std::int64_t n, double z) {
  if (n <= 0) return 1.0;
  const double nn = static_cast<double>(n);
  const double p = static_cast<double>(pass) / nn;
  const double z2 = z * z;
  return z * std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn)) /
         (1.0 + z2 / nn);
}

YieldRun run_blocks(const EarlyStopOptions& opts, int threads,
                    std::int64_t block, const BlockFn& fn) {
  if (opts.max_items < 1 || opts.batch < 1 || opts.min_items < 1 ||
      opts.ci_half_width < 0.0) {
    throw std::invalid_argument("run_blocks: bad options");
  }
  if (block < 1) throw std::invalid_argument("run_blocks: block < 1");
  const auto t0 = std::chrono::steady_clock::now();
  ThreadPool pool(
      clamp_threads_to_items(threads, (opts.max_items + block - 1) / block));
  obs::ScopedSpan run_span("engine.run");
  run_span.attr("items", opts.max_items).attr("threads", pool.threads())
      .attr("block", block);
  YieldRun r;
  r.stats.threads = pool.threads();
  r.stats.per_thread_items.assign(static_cast<std::size_t>(pool.threads()),
                                  0);
  std::atomic<std::int64_t> passed{0};
  // Set per wave: the blocks of the current wave, relative to its start.
  std::int64_t wave_lo = 0;
  std::int64_t wave_hi = 0;
  const std::function<void(int, std::int64_t)> counted =
      [&](int worker, std::int64_t b) {
        const std::int64_t lo = wave_lo + b * block;
        const std::int64_t hi = std::min(lo + block, wave_hi);
        r.stats.per_thread_items[static_cast<std::size_t>(worker)] += hi - lo;
        if (const std::int64_t p = fn(worker, lo, hi)) {
          passed.fetch_add(p, std::memory_order_relaxed);
        }
      };
  EngineMetrics& m = EngineMetrics::get();
  for (std::int64_t wave = 0; r.evaluated < opts.max_items; ++wave) {
    wave_lo = r.evaluated;
    wave_hi = std::min(wave_lo + opts.batch, opts.max_items);
    {
      const auto w0 = std::chrono::steady_clock::now();
      obs::ScopedSpan wave_span("engine.wave");
      wave_span.attr("wave", wave).attr("from", wave_lo)
          .attr("items", wave_hi - wave_lo);
      pool.for_each_indexed((wave_hi - wave_lo + block - 1) / block, counted);
      m.waves.add(1);
      m.wave_us.observe(static_cast<std::int64_t>(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - w0)
              .count()));
    }
    r.evaluated = wave_hi;
    r.passed = passed.load();
    if (opts.ci_half_width > 0.0 && r.evaluated >= opts.min_items &&
        wilson_half_width(r.passed, r.evaluated) <= opts.ci_half_width) {
      r.stats.early_stopped = true;
      m.early_stops.add(1);
      break;
    }
  }
  r.yield = static_cast<double>(r.passed) / static_cast<double>(r.evaluated);
  r.ci95 = wilson_half_width(r.passed, r.evaluated);
  RunStats& s = r.stats;
  s.evaluated = r.evaluated;
  s.skipped = opts.max_items - r.evaluated;
  std::int64_t busiest = 0;
  for (const std::int64_t c : s.per_thread_items) {
    busiest = std::max(busiest, c);
  }
  if (busiest > 0) {
    const double mean = static_cast<double>(s.evaluated) /
                        static_cast<double>(s.per_thread_items.size());
    s.utilization = mean / static_cast<double>(busiest);
  }
  s.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  s.items_per_second = s.wall_seconds > 0.0
                           ? static_cast<double>(s.evaluated) / s.wall_seconds
                           : 0.0;
  m.runs.add(1);
  m.items.add(r.evaluated);
  m.run_us.observe(static_cast<std::int64_t>(s.wall_seconds * 1e6));
  run_span.attr("evaluated", r.evaluated)
      .attr("early_stopped", s.early_stopped ? "true" : "false");
  return r;
}

RunStats parallel_for_indexed(std::int64_t n, int threads,
                              const std::function<void(int, std::int64_t)>& fn,
                              std::int64_t chunk) {
  if (n < 1) {
    RunStats s;
    s.per_thread_items.assign(1, 0);
    return s;
  }
  if (chunk < 1) {
    throw std::invalid_argument("parallel_for_indexed: chunk < 1");
  }
  // A lone worker claims every item anyway: one block saves the per-block
  // dispatch (the chunk only sets how several workers share the items).
  const std::int64_t block =
      clamp_threads_to_items(threads, n) == 1 ? n : chunk;
  return run_blocks({.max_items = n, .batch = n}, threads, block,
                    [&fn](int worker, std::int64_t lo, std::int64_t hi) {
                      for (std::int64_t i = lo; i < hi; ++i) fn(worker, i);
                      return std::int64_t{0};
                    })
      .stats;
}

}  // namespace csdac::mathx
