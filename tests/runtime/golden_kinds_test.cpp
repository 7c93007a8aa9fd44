// Per-kind goldens for the three byte-level contracts of a job: its cache
// key, its encoded result (what the disk tier stores) and its reply JSON.
// tests/runtime/golden_kinds.inc pins all three for one small job of every
// kind; a refactor of the key, the codec or the emitter must leave it
// byte-unchanged. The same values then feed the hostile-decode checks:
// no truncation, version bump, trailing byte or absurd element count may
// decode, crash, or size a large allocation.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "mathx/alloc_counter.hpp"
#include "golden_kind_jobs.hpp"
#include "serve/response.hpp"

namespace csdac::golden {
namespace {

#include "golden_kinds.inc"

struct Computed {
  std::string name;
  runtime::Job job;
  runtime::JobValue value;
  std::vector<unsigned char> bytes;
};

/// Every golden job executed once (single thread) and encoded.
const std::vector<Computed>& computed() {
  static const std::vector<Computed> all = [] {
    std::vector<Computed> out;
    for (auto& [name, job] : golden_kind_jobs()) {
      Computed c{name, job, runtime::execute_job(job, 1, nullptr), {}};
      mathx::ByteWriter w;
      runtime::encode_value(c.value, w);
      c.bytes = w.data();
      out.push_back(std::move(c));
    }
    return out;
  }();
  return all;
}

bool decodes(const Computed& c, const std::vector<unsigned char>& bytes) {
  mathx::ByteReader r(bytes);
  runtime::JobValue out;
  return runtime::decode_value(runtime::job_kind(c.job), r, out);
}

TEST(GoldenKinds, KeysCacheBytesAndReplyJsonArePinned) {
  const auto& all = computed();
  ASSERT_EQ(all.size(), std::size(kGoldenKinds));
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Computed& c = all[i];
    const GoldenKind& g = kGoldenKinds[i];
    SCOPED_TRACE(g.name);
    EXPECT_EQ(c.name, g.name);
    EXPECT_EQ(runtime::job_key(c.job).hex(), g.key);
    EXPECT_EQ(c.bytes.size(), g.bytes);
    EXPECT_EQ(mathx::hash128(c.bytes.data(), c.bytes.size()).hex(),
              g.value_hash);
    bench::JsonWriter w;
    w.begin_object();
    serve::emit_result(w, c.value);
    w.end_object();
    EXPECT_EQ(w.str(), g.json);
  }
}

TEST(GoldenKinds, DecodeReencodesToTheSameBytes) {
  for (const Computed& c : computed()) {
    SCOPED_TRACE(c.name);
    mathx::ByteReader r(c.bytes);
    runtime::JobValue back;
    ASSERT_TRUE(runtime::decode_value(runtime::job_kind(c.job), r, back));
    mathx::ByteWriter w;
    runtime::encode_value(back, w);
    EXPECT_EQ(w.data(), c.bytes);
  }
}

TEST(GoldenKinds, HostileBytesNeverDecode) {
  for (const Computed& c : computed()) {
    SCOPED_TRACE(c.name);
    for (std::size_t n = 0; n < c.bytes.size(); ++n) {
      const std::vector<unsigned char> prefix(c.bytes.begin(),
                                              c.bytes.begin() + n);
      EXPECT_FALSE(decodes(c, prefix)) << "prefix of " << n << " bytes";
    }
    std::vector<unsigned char> bumped = c.bytes;
    ++bumped[0];  // the schema byte
    EXPECT_FALSE(decodes(c, bumped)) << "bumped schema byte";
    std::vector<unsigned char> trailing = c.bytes;
    trailing.push_back(0);
    EXPECT_FALSE(decodes(c, trailing)) << "trailing byte";
  }
}

TEST(GoldenKinds, AbsurdElementCountsAllocateNothingLarge) {
  int vector_kinds = 0;
  for (const Computed& c : computed()) {
    if (c.name.rfind("sweep_", 0) != 0 && c.name != "arch_compare") continue;
    SCOPED_TRACE(c.name);
    ++vector_kinds;
    // Layout: schema byte, then the u32 element count.
    std::vector<unsigned char> bytes = c.bytes;
    std::memset(bytes.data() + 1, 0xFF, 4);
    const mathx::ScopedAllocCounting counting;
    EXPECT_FALSE(decodes(c, bytes));
    EXPECT_LT(counting.so_far().bytes, 1 << 16);
  }
  EXPECT_EQ(vector_kinds, 3);
}

}  // namespace
}  // namespace csdac::golden
