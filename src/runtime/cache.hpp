// Persistent content-addressed result store. Entries are keyed by the
// 128-bit hash of a job's canonical input bytes (plus the engine version
// tag, see job.hpp) and live as one file each under the cache directory:
//
//   <dir>/<32-hex-key>.bin = magic "CSDC" | u32 format | u64 payload_fnv
//                            | u64 payload_size | payload bytes
//
// Writes go to a unique temp file followed by an atomic rename, so readers
// never observe a partial entry and concurrent writers of the same key
// simply race to produce identical content. Reads verify the full header
// and the payload FNV; anything inconsistent is deleted and reported as a
// miss (corruption must degrade to recomputation, never to a wrong result).
// The store is size-bounded: least-recently-used entries (by file mtime,
// refreshed on every hit) are evicted until the byte budget holds. The
// directory is listed on the first store and again only when the running
// byte total (last scan plus this instance's stores since) exceeds the
// budget, so a store costs no directory scan while the budget holds.
// Entries another process writes into the same directory are counted at
// this process's next scan; until then the directory can exceed the budget
// by what the other writers stored.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "mathx/hash.hpp"

namespace csdac::runtime {

struct CacheCounters {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  std::int64_t corrupt = 0;  ///< entries dropped by validation (also missed)
  std::int64_t stores = 0;
  std::int64_t bytes_stored = 0;
};

struct CacheOptions {
  std::string dir = ".csdac-cache";
  /// Total on-disk byte budget (payload + headers). Default 256 MiB.
  std::uint64_t max_bytes = 256ull << 20;
};

class ResultCache {
 public:
  explicit ResultCache(CacheOptions opts);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// On hit fills `payload`, refreshes the entry's LRU stamp and returns
  /// true. Misses (absent or failed validation) return false.
  bool get(const mathx::HashKey128& key, std::vector<unsigned char>& payload);

  /// Stores `payload` under `key` (atomic write-then-rename) and evicts
  /// LRU entries if the byte budget is now exceeded (never the entry just
  /// written). Storing an existing
  /// key only refreshes its LRU stamp — content-addressed entries for the
  /// same key are identical by construction.
  void put(const mathx::HashKey128& key,
           const std::vector<unsigned char>& payload);

  CacheCounters counters() const;
  const CacheOptions& options() const { return opts_; }

  /// Invoked as on_evict(key_hex, bytes) for every evicted entry (the
  /// runtime wires this to the trace log). Set before first use; called
  /// with the cache lock held, so the callback must not reenter the cache.
  std::function<void(const std::string&, std::uint64_t)> on_evict;

 private:
  std::filesystem::path entry_path(const mathx::HashKey128& key) const;
  /// Lists the directory, evicts LRU entries until the budget holds and
  /// resets tracked_bytes_ to what is left. Lock held.
  void evict_to_fit(const std::filesystem::path& keep);

  CacheOptions opts_;
  mutable std::mutex mutex_;
  CacheCounters counters_;
  bool scanned_ = false;            ///< evict_to_fit has run at least once
  std::uint64_t tracked_bytes_ = 0; ///< last scan total + stores since
  std::atomic<std::uint64_t> tmp_seq_{0};
};

}  // namespace csdac::runtime
