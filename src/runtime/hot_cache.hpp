// In-memory hot tier above the persistent disk cache: a sharded map with a
// per-shard LRU list and a global byte budget, so repeated questions are
// answered from RAM without touching the filesystem at all. Keys are the
// same 128-bit content hashes as the disk tier; payloads are the encoded
// result bytes, stored verbatim, so hot hits and disk hits decode through
// the identical path and can never disagree.
//
// Sharding: key.lo (already avalanche-mixed, see mathx/hash.hpp) selects
// one of `shards` independent LRU maps, each behind its own mutex, so
// concurrent clients hitting different keys almost never contend. The byte
// budget is split evenly across shards; an entry larger than its shard's
// slice is simply not admitted (it would evict the whole shard for one
// resident). Hits refresh recency; eviction pops the least-recently-used
// entry until the shard fits.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "mathx/hash.hpp"

namespace csdac::runtime {

struct HotCacheCounters {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  std::int64_t inserts = 0;
  std::int64_t rejected = 0;  ///< payloads larger than a shard's budget
  std::int64_t bytes = 0;     ///< resident payload bytes right now
};

struct HotCacheOptions {
  /// Total resident-byte budget across all shards. Default 64 MiB.
  std::uint64_t max_bytes = 64ull << 20;
  int shards = 8;
};

class HotCache {
 public:
  explicit HotCache(HotCacheOptions opts);

  HotCache(const HotCache&) = delete;
  HotCache& operator=(const HotCache&) = delete;

  /// On hit copies the payload out, refreshes recency, and returns true.
  /// `count_miss` false keeps a miss out of the counters: a probe whose
  /// miss a later lookup of the same job counts.
  bool get(const mathx::HashKey128& key, std::vector<unsigned char>& payload,
           bool count_miss = true);

  /// Admits `payload` under `key` (no-op if already resident, which only
  /// refreshes recency — same-key payloads are identical by construction)
  /// and evicts LRU entries until the shard honors its budget slice.
  void put(const mathx::HashKey128& key,
           const std::vector<unsigned char>& payload);

  /// Aggregated over the shards; counters race with writers the same
  /// benign way the obs registry snapshots do.
  HotCacheCounters counters() const;

  const HotCacheOptions& options() const { return opts_; }

 private:
  struct Entry {
    mathx::HashKey128 key;
    std::vector<unsigned char> payload;
  };
  struct KeyHash {
    std::size_t operator()(const mathx::HashKey128& k) const noexcept {
      return static_cast<std::size_t>(k.lo);
    }
  };
  struct Shard {
    std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<mathx::HashKey128, std::list<Entry>::iterator, KeyHash>
        by_key;
    std::uint64_t bytes = 0;
    HotCacheCounters counters;
  };

  Shard& shard_for(const mathx::HashKey128& key) {
    return *shards_[static_cast<std::size_t>(
        key.lo % static_cast<std::uint64_t>(shards_.size()))];
  }

  HotCacheOptions opts_;
  std::uint64_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace csdac::runtime
