#include "runtime/cache.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <system_error>

#include "obs/metrics.hpp"

namespace csdac::runtime {

namespace {

constexpr char kMagic[4] = {'C', 'S', 'D', 'C'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;

/// Process-wide cache instruments: every ResultCache instance feeds the
/// same registry metrics (per-instance CacheCounters stay exact for the
/// trace's run_finish line; these power /metrics and the CI smoke checks).
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Counter& corrupt;
  obs::Counter& stores;
  obs::Counter& bytes_stored;
  obs::Histogram& payload_bytes;

  static CacheMetrics& get() {
    auto& r = obs::Registry::global();
    static CacheMetrics m{
        r.counter("cache.hits", "result-cache lookups served from disk"),
        r.counter("cache.misses", "result-cache lookups that recomputed"),
        r.counter("cache.evictions", "entries evicted to honor the budget"),
        r.counter("cache.corrupt", "entries dropped by validation"),
        r.counter("cache.stores", "entries written to the store"),
        r.counter("cache.bytes_stored", "bytes written incl. headers"),
        r.histogram("cache.payload_bytes", "stored payload size [bytes]"),
    };
    return m;
  }
};

}  // namespace

ResultCache::ResultCache(CacheOptions opts) : opts_(std::move(opts)) {
  std::filesystem::create_directories(opts_.dir);
}

std::filesystem::path ResultCache::entry_path(
    const mathx::HashKey128& key) const {
  return std::filesystem::path(opts_.dir) / (key.hex() + ".bin");
}

bool ResultCache::get(const mathx::HashKey128& key,
                      std::vector<unsigned char>& payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto path = entry_path(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ++counters_.misses;
    CacheMetrics::get().misses.add(1);
    return false;
  }
  std::vector<unsigned char> file((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  in.close();

  bool valid = file.size() >= kHeaderBytes;
  std::uint64_t payload_fnv = 0, payload_size = 0;
  if (valid) {
    mathx::ByteReader r(file);
    valid = r.u8() == static_cast<std::uint8_t>(kMagic[0]) &&
            r.u8() == static_cast<std::uint8_t>(kMagic[1]) &&
            r.u8() == static_cast<std::uint8_t>(kMagic[2]) &&
            r.u8() == static_cast<std::uint8_t>(kMagic[3]) &&
            r.u32() == kFormatVersion;
    payload_fnv = r.u64();
    payload_size = r.u64();
    valid = valid && r.ok() && payload_size == file.size() - kHeaderBytes;
  }
  if (valid) {
    valid = mathx::fnv1a64(file.data() + kHeaderBytes, payload_size) ==
            payload_fnv;
  }
  if (!valid) {
    // Corrupt or foreign file squatting on the entry name: drop it so the
    // slot heals on the next put.
    std::error_code ec;
    std::filesystem::remove(path, ec);
    ++counters_.corrupt;
    ++counters_.misses;
    CacheMetrics::get().corrupt.add(1);
    CacheMetrics::get().misses.add(1);
    return false;
  }

  payload.assign(file.begin() + kHeaderBytes, file.end());
  ++counters_.hits;
  CacheMetrics::get().hits.add(1);
  // Refresh the LRU stamp; failure (e.g. read-only store) only weakens
  // eviction ordering.
  std::error_code ec;
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now(), ec);
  return true;
}

void ResultCache::put(const mathx::HashKey128& key,
                      const std::vector<unsigned char>& payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto path = entry_path(key);
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now(), ec);
    return;
  }

  mathx::ByteWriter header;
  header.bytes(kMagic, sizeof(kMagic));
  header.u32(kFormatVersion);
  header.u64(mathx::fnv1a64(payload.data(), payload.size()));
  header.u64(payload.size());

  char tmp_name[64];
  std::snprintf(tmp_name, sizeof(tmp_name), "tmp-%s-%llu",
                key.hex().c_str(),
                static_cast<unsigned long long>(
                    tmp_seq_.fetch_add(1, std::memory_order_relaxed)));
  const auto tmp = std::filesystem::path(opts_.dir) / tmp_name;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;  // cache unavailable: degrade silently to no-store
    out.write(reinterpret_cast<const char*>(header.data().data()),
              static_cast<std::streamsize>(header.size()));
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    if (!out) {
      out.close();
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return;
  }
  const std::uint64_t entry_bytes = kHeaderBytes + payload.size();
  ++counters_.stores;
  counters_.bytes_stored += static_cast<std::int64_t>(entry_bytes);
  CacheMetrics& cm = CacheMetrics::get();
  cm.stores.add(1);
  cm.bytes_stored.add(static_cast<std::int64_t>(entry_bytes));
  cm.payload_bytes.observe(static_cast<std::int64_t>(payload.size()));
  tracked_bytes_ += entry_bytes;
  if (!scanned_ || tracked_bytes_ > opts_.max_bytes) evict_to_fit(path);
}

void ResultCache::evict_to_fit(const std::filesystem::path& keep) {
  struct Entry {
    std::filesystem::path path;
    std::uint64_t bytes;
    std::filesystem::file_time_type mtime;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& de :
       std::filesystem::directory_iterator(opts_.dir, ec)) {
    if (!de.is_regular_file(ec)) continue;
    if (de.path().extension() != ".bin") continue;
    const std::uint64_t bytes = de.file_size(ec);
    if (ec) continue;
    total += bytes;
    entries.push_back({de.path(), bytes, de.last_write_time(ec)});
  }
  scanned_ = true;
  tracked_bytes_ = total;
  if (total <= opts_.max_bytes) return;
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  for (const auto& e : entries) {
    if (total <= opts_.max_bytes) break;
    if (e.path == keep) continue;  // never evict the entry just written
    std::filesystem::remove(e.path, ec);
    if (ec) continue;
    total -= e.bytes;
    ++counters_.evictions;
    CacheMetrics::get().evictions.add(1);
    if (on_evict) on_evict(e.path.stem().string(), e.bytes);
  }
  tracked_bytes_ = total;
}

CacheCounters ResultCache::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace csdac::runtime
