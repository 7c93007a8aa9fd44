#include "runtime/hot_cache.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace csdac::runtime {

namespace {

/// Hot-tier instruments in the process-wide registry. The gauge tracks
/// resident bytes across every HotCache instance in the process (tests use
/// the per-instance counters when they need isolation).
struct HotMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Counter& inserts;
  obs::Gauge& bytes;

  static HotMetrics& get() {
    obs::Registry& r = obs::Registry::global();
    static HotMetrics m{
        r.counter("cache.hot.hits", "hot-tier lookups served from memory"),
        r.counter("cache.hot.misses", "hot-tier lookups that fell through"),
        r.counter("cache.hot.evictions", "hot-tier entries evicted (LRU)"),
        r.counter("cache.hot.inserts", "hot-tier entries admitted"),
        r.gauge("cache.hot.bytes", "hot-tier resident payload bytes"),
    };
    return m;
  }
};

}  // namespace

HotCache::HotCache(HotCacheOptions opts) : opts_(opts) {
  const int n = std::max(opts_.shards, 1);
  opts_.shards = n;
  shard_budget_ = opts_.max_bytes / static_cast<std::uint64_t>(n);
  shards_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

bool HotCache::get(const mathx::HashKey128& key,
                   std::vector<unsigned char>& payload, bool count_miss) {
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.by_key.find(key);
  if (it == s.by_key.end()) {
    if (!count_miss) return false;
    ++s.counters.misses;
    HotMetrics::get().misses.add(1);
    return false;
  }
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // refresh recency
  payload = it->second->payload;
  ++s.counters.hits;
  HotMetrics::get().hits.add(1);
  return true;
}

void HotCache::put(const mathx::HashKey128& key,
                   const std::vector<unsigned char>& payload) {
  Shard& s = shard_for(key);
  HotMetrics& m = HotMetrics::get();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (const auto it = s.by_key.find(key); it != s.by_key.end()) {
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  if (payload.size() > shard_budget_) {
    ++s.counters.rejected;
    return;
  }
  s.lru.push_front(Entry{key, payload});
  s.by_key.emplace(key, s.lru.begin());
  s.bytes += payload.size();
  ++s.counters.inserts;
  m.inserts.add(1);
  m.bytes.add(static_cast<double>(payload.size()));
  while (s.bytes > shard_budget_ && !s.lru.empty()) {
    const Entry& victim = s.lru.back();
    s.bytes -= victim.payload.size();
    m.bytes.add(-static_cast<double>(victim.payload.size()));
    s.by_key.erase(victim.key);
    s.lru.pop_back();
    ++s.counters.evictions;
    m.evictions.add(1);
  }
}

HotCacheCounters HotCache::counters() const {
  HotCacheCounters total;
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lock(sp->mutex);
    total.hits += sp->counters.hits;
    total.misses += sp->counters.misses;
    total.evictions += sp->counters.evictions;
    total.inserts += sp->counters.inserts;
    total.rejected += sp->counters.rejected;
    total.bytes += static_cast<std::int64_t>(sp->bytes);
  }
  return total;
}

}  // namespace csdac::runtime
