#include "runtime/executor.hpp"

#include <chrono>

#include "obs/span.hpp"

namespace csdac::runtime {

namespace {

/// Microseconds elapsed since `from`, advancing `from` to now — the stage
/// stopwatch: each stage costs one clock read beyond what run() already
/// paid for wall_seconds.
std::int64_t lap_us(std::chrono::steady_clock::time_point& from) {
  const auto now = std::chrono::steady_clock::now();
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(now - from)
          .count();
  from = now;
  return us;
}

/// Marks `r` as answered by a cache tier: nothing evaluated, one hit.
void answered_by(ResultTier tier, ExecResult& r) {
  r.tier = tier;
  r.stats = mathx::RunStats{};
  r.stats.cache_hits = 1;
}

}  // namespace

std::string_view tier_name(ResultTier tier) {
  switch (tier) {
    case ResultTier::kHot:
      return "hot";
    case ResultTier::kDisk:
      return "disk";
    case ResultTier::kComputed:
      break;
  }
  return "miss";
}

JobExecutor::JobExecutor(ExecutorOptions opts) : opts_(std::move(opts)) {
  if (!opts_.cache_dir.empty()) {
    CacheOptions co;
    co.dir = opts_.cache_dir;
    co.max_bytes = opts_.cache_max_bytes;
    disk_ = std::make_unique<ResultCache>(std::move(co));
  }
  if (opts_.hot_bytes > 0) {
    HotCacheOptions ho;
    ho.max_bytes = opts_.hot_bytes;
    ho.shards = opts_.hot_shards;
    hot_ = std::make_unique<HotCache>(ho);
  }
}

bool JobExecutor::lookup_hot(JobKind kind, const mathx::HashKey128& key,
                             ExecResult& r, bool count_miss) {
  if (!hot_) return false;
  const auto t0 = std::chrono::steady_clock::now();
  auto mark = t0;
  std::vector<unsigned char> payload;
  // A hot entry that fails the decode is impossible unless the process
  // mixes engine versions; the caller falls through and recomputes.
  if (hot_->get(key, payload, count_miss)) {
    mathx::ByteReader reader(payload);
    if (decode_value(kind, reader, r.value)) answered_by(ResultTier::kHot, r);
  }
  r.stages.hot_us = lap_us(mark);
  r.wall_seconds = std::chrono::duration<double>(mark - t0).count();
  return r.tier == ResultTier::kHot;
}

ExecResult JobExecutor::run(const Job& job, const mathx::HashKey128& key,
                            int threads, std::string_view trace_id) {
  const auto t0 = std::chrono::steady_clock::now();
  ExecResult r;
  const JobKind kind = job_kind(job);
  obs::ScopedSpan span("exec.job");
  span.attr("kind", kind_name(kind));
  if (!trace_id.empty()) span.attr("trace_id", trace_id);

  lookup_hot(kind, key, r);
  auto mark = std::chrono::steady_clock::now();
  if (r.tier == ResultTier::kComputed && disk_) {
    std::vector<unsigned char> payload;
    if (disk_->get(key, payload)) {
      mathx::ByteReader reader(payload);
      if (decode_value(kind, reader, r.value)) {
        answered_by(ResultTier::kDisk, r);
        // Promote so the next identical question never touches the disk.
        if (hot_) hot_->put(key, payload);
      }
      // Framing-valid but schema-stale entries miss and get overwritten.
    }
    r.stages.disk_us = lap_us(mark);
  }

  if (r.tier == ResultTier::kComputed) {
    r.value = execute_job(job, threads, &r.stats);
    r.stats.cache_hits = 0;
    r.stats.cache_misses = (disk_ || hot_) ? 1 : 0;
    r.stages.compute_us = lap_us(mark);
    if (disk_ || hot_) {
      mathx::ByteWriter w;
      encode_value(r.value, w);
      if (disk_) disk_->put(key, w.data());
      if (hot_) hot_->put(key, w.data());
      r.stages.store_us = lap_us(mark);
    }
  }
  span.attr("tier", tier_name(r.tier));
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

CacheCounters JobExecutor::disk_counters() const {
  return disk_ ? disk_->counters() : CacheCounters{};
}

HotCacheCounters JobExecutor::hot_counters() const {
  return hot_ ? hot_->counters() : HotCacheCounters{};
}

}  // namespace csdac::runtime
