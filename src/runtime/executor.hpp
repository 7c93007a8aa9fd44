// Shared job executor: the tiered result store (in-memory hot tier above
// the persistent disk cache) plus fresh execution, so that any number of
// schedulers, their workers, and single-job callers (the bench harness,
// the tests) can share ONE set of cache tiers.
// run() is safe to call from many threads at once: the hot tier is sharded,
// the disk tier serializes internally, and execute_job is a pure function
// of (job, threads).
//
// Lookup order: hot tier -> disk tier -> compute. Disk hits are promoted
// into the hot tier; computed results are written to both, so a warm
// process answers from RAM and a warm cache directory answers a fresh
// process from disk exactly as before.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "runtime/cache.hpp"
#include "runtime/hot_cache.hpp"
#include "runtime/job.hpp"

namespace csdac::runtime {

struct ExecutorOptions {
  /// Directory of the persistent disk cache; empty disables the disk tier.
  std::string cache_dir;
  std::uint64_t cache_max_bytes = 256ull << 20;
  /// Byte budget of the in-memory hot tier; 0 disables it.
  std::uint64_t hot_bytes = 0;
  int hot_shards = 8;
};

/// Where a result came from.
enum class ResultTier : std::uint8_t {
  kComputed = 0,  ///< executed fresh (and stored, when tiers exist)
  kHot = 1,       ///< served from the in-memory tier, zero disk I/O
  kDisk = 2,      ///< served from the persistent store
};

std::string_view tier_name(ResultTier tier);

/// Per-stage latency attribution of one resolved job, microseconds. The
/// executor fills the lookup/compute/store stages; the scheduler adds the
/// admission and queue waits it alone can see. Stages a job never entered
/// stay 0 — a hot hit has compute_us == 0 by construction, which is
/// exactly what the warm-pass regression checks assert on.
struct StageTimes {
  std::int64_t admission_us = 0;  ///< blocked at the per-client cap
  std::int64_t queue_us = 0;      ///< submit -> worker pickup
  std::int64_t hot_us = 0;        ///< hot-tier lookup (hit or miss)
  std::int64_t disk_us = 0;       ///< disk-tier lookup incl. hot promote
  std::int64_t compute_us = 0;    ///< fresh execution
  std::int64_t store_us = 0;      ///< encode + write-through to the tiers
};

struct ExecResult {
  JobValue value;
  mathx::RunStats stats;  ///< cache_hits=1/evaluated=0 on any cache hit
  ResultTier tier = ResultTier::kComputed;
  double wall_seconds = 0.0;  ///< end-to-end, including cache I/O
  StageTimes stages;

  bool cache_hit() const { return tier != ResultTier::kComputed; }
};

class JobExecutor {
 public:
  explicit JobExecutor(ExecutorOptions opts);

  JobExecutor(const JobExecutor&) = delete;
  JobExecutor& operator=(const JobExecutor&) = delete;

  /// Resolves one job: tiered lookup, then fresh execution on `threads`
  /// engine workers. Thread-safe; concurrent callers with the same key
  /// may both compute (identical results race benignly into the store) —
  /// single-flight dedup is the Scheduler's job, not the executor's.
  /// `trace_id`, when non-empty, tags the exec.job span so the flight
  /// recorder and trace dumps can tie tier lookups back to the request.
  ExecResult run(const Job& job, const mathx::HashKey128& key, int threads,
                 std::string_view trace_id = {});

  /// The hot-tier step of run(), callable alone: on a hit fills `r` with
  /// the decoded value, tier kHot and the cache-hit stats, and returns
  /// true. Fills stages.hot_us and wall_seconds either way (a no-op
  /// returning false when the hot tier is disabled). `count_miss` false
  /// keeps a miss out of the counters, for a probe whose miss run()
  /// counts later — the Scheduler answers hits this way on the
  /// submitting thread.
  bool lookup_hot(JobKind kind, const mathx::HashKey128& key, ExecResult& r,
                  bool count_miss = true);

  /// Counters of the disk tier (zeroes when disabled).
  CacheCounters disk_counters() const;
  /// Counters of the hot tier (zeroes when disabled).
  HotCacheCounters hot_counters() const;

  ResultCache* disk() { return disk_.get(); }
  HotCache* hot() { return hot_.get(); }
  const ExecutorOptions& options() const { return opts_; }

 private:
  ExecutorOptions opts_;
  std::unique_ptr<ResultCache> disk_;
  std::unique_ptr<HotCache> hot_;
};

}  // namespace csdac::runtime
