// Tests for the job-graph runtime: cache-key discipline, persistent-store
// round trips (bit-identical across thread counts), corruption and
// eviction behavior, graph dedup/ordering, the JSON parser of the batch
// service, and equivalence of runtime jobs with direct engine calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/accuracy.hpp"
#include "dac/static_analysis.hpp"
#include "runtime/cache.hpp"
#include "runtime/graph.hpp"
#include "runtime/json.hpp"
#include "tech/tech.hpp"

namespace csdac::runtime {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const char* tag) {
    path = fs::path(testing::TempDir()) /
           (std::string("csdac-") + tag + "-" +
            std::to_string(static_cast<unsigned long long>(
                reinterpret_cast<std::uintptr_t>(this))));
    fs::remove_all(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

InlYieldJob small_inl_job() {
  InlYieldJob j;
  j.sigma_unit = core::unit_sigma_spec(j.spec.nbits, j.spec.inl_yield);
  j.chips = 60;
  j.seed = 1234;
  return j;
}

// --- Cache keys ------------------------------------------------------------

TEST(JobKey, StableForIdenticalInputs) {
  EXPECT_EQ(job_key(small_inl_job()), job_key(small_inl_job()));
}

TEST(JobKey, EveryInlYieldFieldChangesTheKey) {
  const auto base_key = job_key(small_inl_job());
  const auto expect_differs = [&base_key](const InlYieldJob& j,
                                          const char* what) {
    EXPECT_NE(job_key(j), base_key) << what;
  };
  InlYieldJob j = small_inl_job();
  j.sigma_unit *= 1.0000001;
  expect_differs(j, "sigma_unit");
  j = small_inl_job();
  j.chips += 1;
  expect_differs(j, "chips");
  j = small_inl_job();
  j.seed += 1;
  expect_differs(j, "seed");
  j = small_inl_job();
  j.limit = 0.6;
  expect_differs(j, "limit");
  j = small_inl_job();
  j.ref = dac::InlReference::kEndpoint;
  expect_differs(j, "ref");
  j = small_inl_job();
  j.dnl = true;
  expect_differs(j, "dnl");
  j = small_inl_job();
  j.adaptive = true;
  expect_differs(j, "adaptive");
  j = small_inl_job();
  j.min_chips += 1;
  expect_differs(j, "min_chips");
  j = small_inl_job();
  j.batch += 1;
  expect_differs(j, "batch");
  j = small_inl_job();
  j.ci_half_width = 0.5;
  expect_differs(j, "ci_half_width");
  j = small_inl_job();
  j.spec.nbits = 10;
  expect_differs(j, "spec.nbits");
  j = small_inl_job();
  j.spec.r_load = 75.0;
  expect_differs(j, "spec.r_load");
}

TEST(JobKey, SweepFieldsChangeTheKey) {
  SweepBasicJob j;
  j.tech = tech::generic_035um().nmos;
  j.cs = {0.1, 0.9, 5};
  j.sw = {0.1, 0.9, 5};
  const auto base_key = job_key(j);

  SweepBasicJob k = j;
  k.cs.steps = 6;
  EXPECT_NE(job_key(k), base_key) << "axis steps";
  k = j;
  k.sw.hi = 0.8;
  EXPECT_NE(job_key(k), base_key) << "axis bound";
  k = j;
  k.tech.a_vt *= 1.01;
  EXPECT_NE(job_key(k), base_key) << "tech mismatch coefficient";
  k = j;
  k.policy = core::MarginPolicy::kFixedMargin;
  EXPECT_NE(job_key(k), base_key) << "policy";

  // The cascode job with identical shared fields is a different kind,
  // hence a different key.
  SweepCascodeJob c;
  c.tech = j.tech;
  c.cs = j.cs;
  c.sw = j.sw;
  EXPECT_NE(job_key(Job(c)), base_key);
}

TEST(JobKey, ThreadCountIsNotPartOfTheKey) {
  // Results are thread-count invariant, so the key must not encode any
  // execution option: run the same job on different thread counts and
  // expect one cache entry total.
  ScratchDir dir("threads-key");
  RuntimeOptions opts;
  opts.cache_dir = dir.str();
  for (const int threads : {1, 2, 7}) {
    RuntimeOptions o = opts;
    o.threads = threads;
    (void)run_job(small_inl_job(), o);
  }
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    entries += e.path().extension() == ".bin" ? 1 : 0;
  }
  EXPECT_EQ(entries, 1u);
}

// --- Cached results are bit-identical to fresh computation -----------------

TEST(ResultRoundTrip, CachedInlYieldBitIdenticalAcrossThreads) {
  ScratchDir dir("roundtrip-inl");
  const InlYieldJob job = small_inl_job();

  RuntimeOptions cold;
  cold.threads = 1;
  cold.cache_dir = dir.str();
  const JobRecord first = run_job(job, cold);
  ASSERT_FALSE(first.cache_hit);
  const auto& fresh = std::get<YieldResult>(first.value);

  for (const int threads : {1, 2, 7}) {
    RuntimeOptions warm = cold;
    warm.threads = threads;
    const JobRecord again = run_job(job, warm);
    EXPECT_TRUE(again.cache_hit) << threads << " threads";
    const auto& cached = std::get<YieldResult>(again.value);
    EXPECT_EQ(cached.chips, fresh.chips);
    EXPECT_EQ(cached.pass, fresh.pass);
    EXPECT_EQ(cached.yield, fresh.yield);
    EXPECT_EQ(cached.ci95, fresh.ci95);

    // And the cached value must equal what a fresh run at this thread
    // count computes (thread-count invariance of the engine).
    RuntimeOptions nocache;
    nocache.threads = threads;
    const JobRecord direct = run_job(job, nocache);
    const auto& recomputed = std::get<YieldResult>(direct.value);
    EXPECT_EQ(cached.yield, recomputed.yield);
    EXPECT_EQ(cached.ci95, recomputed.ci95);
  }
}

TEST(ResultRoundTrip, CachedSweepBitIdenticalEveryField) {
  ScratchDir dir("roundtrip-sweep");
  SweepBasicJob job;
  job.tech = tech::generic_035um().nmos;
  job.cs = {0.1, 0.9, 6};
  job.sw = {0.1, 0.9, 6};

  RuntimeOptions opts;
  opts.threads = 2;
  opts.cache_dir = dir.str();
  const JobRecord first = run_job(job, opts);
  ASSERT_FALSE(first.cache_hit);
  const JobRecord second = run_job(job, opts);
  ASSERT_TRUE(second.cache_hit);

  const auto& a = std::get<SweepResult>(first.value).points;
  const auto& b = std::get<SweepResult>(second.value).points;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].vod_cs, b[i].vod_cs);
    EXPECT_EQ(a[i].vod_sw, b[i].vod_sw);
    EXPECT_EQ(a[i].vod_cas, b[i].vod_cas);
    EXPECT_EQ(a[i].feasible, b[i].feasible);
    EXPECT_EQ(a[i].margin, b[i].margin);
    EXPECT_EQ(a[i].area, b[i].area);
    EXPECT_EQ(a[i].f_min_hz, b[i].f_min_hz);
    EXPECT_EQ(a[i].t_settle_s, b[i].t_settle_s);
    EXPECT_EQ(a[i].rout_unit, b[i].rout_unit);
  }
}

TEST(ResultRoundTrip, WarmRunDoesZeroChipEvaluations) {
  ScratchDir dir("warm-zero");
  RuntimeOptions opts;
  opts.cache_dir = dir.str();
  (void)run_job(small_inl_job(), opts);

  const std::int64_t before = dac::mc_chips_evaluated();
  const JobRecord warm = run_job(small_inl_job(), opts);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(dac::mc_chips_evaluated() - before, 0);
  EXPECT_EQ(warm.stats.cache_hits, 1);
  EXPECT_EQ(warm.stats.evaluated, 0);
}

// --- Runtime jobs match direct engine calls --------------------------------

TEST(JobEquivalence, FixedAndAdaptiveMatchDirectCalls) {
  const InlYieldJob fixed = small_inl_job();
  RuntimeOptions opts;
  opts.threads = 2;
  // Keep the JobRecord alive: std::get on the rvalue member would leave
  // the reference dangling once the temporary record is destroyed.
  const JobRecord rec_fixed = run_job(fixed, opts);
  const auto& rt_fixed = std::get<YieldResult>(rec_fixed.value);
  const auto direct_fixed =
      dac::inl_yield_mc(fixed.spec, fixed.sigma_unit, fixed.chips, fixed.seed,
                        fixed.limit, fixed.ref, 2);
  EXPECT_EQ(rt_fixed.yield, direct_fixed.yield);
  EXPECT_EQ(rt_fixed.pass, direct_fixed.pass);

  InlYieldJob adaptive = small_inl_job();
  adaptive.adaptive = true;
  adaptive.chips = 500;
  adaptive.min_chips = 64;
  adaptive.batch = 64;
  adaptive.ci_half_width = 0.05;
  const JobRecord rec_adaptive = run_job(adaptive, opts);
  const auto& rt_adaptive = std::get<YieldResult>(rec_adaptive.value);
  dac::AdaptiveMcOptions aopts;
  aopts.max_chips = adaptive.chips;
  aopts.min_chips = adaptive.min_chips;
  aopts.batch = adaptive.batch;
  aopts.ci_half_width = adaptive.ci_half_width;
  aopts.threads = 2;
  const auto direct_adaptive = dac::inl_yield_mc_adaptive(
      adaptive.spec, adaptive.sigma_unit, aopts, adaptive.seed,
      adaptive.limit, adaptive.ref);
  EXPECT_EQ(rt_adaptive.chips, direct_adaptive.chips);
  EXPECT_EQ(rt_adaptive.yield, direct_adaptive.yield);
  EXPECT_EQ(rt_adaptive.ci95, direct_adaptive.ci95);
}

// --- Corruption and eviction ----------------------------------------------

TEST(Cache, CorruptEntryRecomputesInsteadOfServingGarbage) {
  ScratchDir dir("corrupt");
  RuntimeOptions opts;
  opts.cache_dir = dir.str();
  const JobRecord fresh = run_job(small_inl_job(), opts);
  const auto& want = std::get<YieldResult>(fresh.value);

  // Flip one payload byte in the single stored entry.
  fs::path entry;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    if (e.path().extension() == ".bin") entry = e.path();
  }
  ASSERT_FALSE(entry.empty());
  {
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(-1, std::ios::end);  // last payload byte
    const char flip = static_cast<char>(0xa5);
    f.write(&flip, 1);
  }

  JobGraph graph(opts);
  const JobId id = graph.add(small_inl_job());
  graph.run_all();
  const JobRecord& redone = graph.record(id);
  EXPECT_FALSE(redone.cache_hit);
  EXPECT_EQ(graph.cache_counters().corrupt, 1);
  const auto& got = std::get<YieldResult>(redone.value);
  EXPECT_EQ(got.yield, want.yield);
  EXPECT_EQ(got.ci95, want.ci95);

  // The recompute overwrote the bad entry: next run hits again.
  const JobRecord healed = run_job(small_inl_job(), opts);
  EXPECT_TRUE(healed.cache_hit);
}

TEST(Cache, TruncatedEntryIsAMiss) {
  ScratchDir dir("truncate");
  CacheOptions copts;
  copts.dir = dir.str();

  const mathx::HashKey128 key{42, 43};
  const std::vector<unsigned char> payload(64, 0x5a);
  {
    ResultCache cache(copts);
    cache.put(key, payload);
    std::vector<unsigned char> back;
    ASSERT_TRUE(cache.get(key, back));
    EXPECT_EQ(back, payload);
  }
  const fs::path entry = dir.path / (key.hex() + ".bin");
  fs::resize_file(entry, fs::file_size(entry) / 2);

  ResultCache cache(copts);
  std::vector<unsigned char> back;
  EXPECT_FALSE(cache.get(key, back));
  EXPECT_EQ(cache.counters().corrupt, 1);
  EXPECT_FALSE(fs::exists(entry));  // dropped, not left to fail again
}

TEST(Cache, EvictsLeastRecentlyUsedToFitBudget) {
  ScratchDir dir("evict");
  CacheOptions copts;
  copts.dir = dir.str();
  copts.max_bytes = 400;  // roughly two 100-byte payloads + headers
  ResultCache cache(copts);

  std::vector<std::string> evicted;
  cache.on_evict = [&evicted](const std::string& key_hex, std::uint64_t) {
    evicted.push_back(key_hex);
  };

  const std::vector<unsigned char> payload(100, 1);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    cache.put(mathx::HashKey128{i, i}, payload);
  }
  EXPECT_GE(cache.counters().evictions, 1);
  EXPECT_FALSE(evicted.empty());
  // The most recent insert always survives.
  std::vector<unsigned char> back;
  EXPECT_TRUE(cache.get(mathx::HashKey128{4, 4}, back));
  std::uintmax_t total = 0;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    total += fs::file_size(e.path());
  }
  EXPECT_LE(total, copts.max_bytes);
}

std::uintmax_t dir_bytes(const fs::path& dir) {
  std::uintmax_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".bin") total += fs::file_size(e.path());
  }
  return total;
}

TEST(Cache, BudgetHoldsAfterEveryOneOfManyPuts) {
  ScratchDir dir("many");
  CacheOptions copts;
  copts.dir = dir.str();
  copts.max_bytes = 1000;  // eight 100-byte payloads + headers
  ResultCache cache(copts);

  const std::vector<unsigned char> payload(100, 7);
  for (std::uint64_t i = 1; i <= 60; ++i) {
    cache.put(mathx::HashKey128{i, 2 * i}, payload);
    ASSERT_LE(dir_bytes(dir.path), copts.max_bytes) << "after put " << i;
    std::vector<unsigned char> back;
    ASSERT_TRUE(cache.get(mathx::HashKey128{i, 2 * i}, back)) << i;
  }
  EXPECT_EQ(cache.counters().stores, 60);
  EXPECT_GE(cache.counters().evictions, 60 - 8);
}

TEST(Cache, SecondInstanceOnTheSameDirectoryIsEvictedOnceBudgetCrossed) {
  ScratchDir dir("shared");
  CacheOptions copts;
  copts.dir = dir.str();
  copts.max_bytes = 1000;  // eight 124-byte entries
  const std::vector<unsigned char> payload(100, 3);

  ResultCache a(copts);
  a.put(mathx::HashKey128{1, 1}, payload);

  // Another writer on the same directory, whose entries are older.
  ResultCache b(copts);
  std::vector<mathx::HashKey128> b_keys;
  for (std::uint64_t i = 100; i < 106; ++i) {
    b_keys.push_back(mathx::HashKey128{i, i});
    b.put(b_keys.back(), payload);
    fs::last_write_time(dir.path / (b_keys.back().hex() + ".bin"),
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(1));
  }
  EXPECT_EQ(b.counters().evictions, 0);

  // `a` learns about b's entries at its next scan, which its own stores
  // trigger once they alone cross the budget.
  std::vector<std::string> evicted;
  a.on_evict = [&evicted](const std::string& key_hex, std::uint64_t) {
    evicted.push_back(key_hex);
  };
  for (std::uint64_t i = 2; i <= 9; ++i) {
    a.put(mathx::HashKey128{i, i}, payload);
  }
  EXPECT_LE(dir_bytes(dir.path), copts.max_bytes);
  for (const mathx::HashKey128& k : b_keys) {
    EXPECT_FALSE(fs::exists(dir.path / (k.hex() + ".bin"))) << k.hex();
    EXPECT_NE(std::find(evicted.begin(), evicted.end(), k.hex()),
              evicted.end())
        << k.hex();
  }
  std::vector<unsigned char> back;
  EXPECT_TRUE(a.get(mathx::HashKey128{9, 9}, back));
}

// --- Graph behavior --------------------------------------------------------

TEST(JobGraph, DeduplicatesIdenticalJobs) {
  JobGraph graph;
  const JobId a = graph.add(small_inl_job(), "first");
  const JobId b = graph.add(small_inl_job(), "second");
  EXPECT_EQ(a, b);
  EXPECT_EQ(graph.size(), 1u);

  InlYieldJob other = small_inl_job();
  other.seed += 1;
  EXPECT_NE(graph.add(other), a);
  EXPECT_EQ(graph.size(), 2u);
}

TEST(JobGraph, DependencyOrderVisibleInTrace) {
  ScratchDir dir("deps");
  RuntimeOptions opts;
  opts.threads = 2;
  opts.trace_path = (dir.path / "trace.jsonl").string();
  fs::create_directories(dir.path);

  JobGraph graph(opts);
  InlYieldJob a = small_inl_job();
  InlYieldJob b = small_inl_job();
  b.seed = 9;
  InlYieldJob c = small_inl_job();
  c.seed = 10;
  const JobId ia = graph.add(a, "upstream");
  const JobId ib = graph.add(b, "mid");
  const JobId ic = graph.add(c, "down");
  graph.depend(ib, ia);
  graph.depend(ic, ib);
  graph.run_all();

  // Replay the trace: each job's start must come after its prerequisite's
  // finish.
  std::ifstream in(opts.trace_path);
  ASSERT_TRUE(in.good());
  std::vector<std::pair<std::string, int>> events;  // (ev, job)
  std::string line;
  while (std::getline(in, line)) {
    JsonValue ev;
    std::string err;
    ASSERT_TRUE(parse_json(line, ev, &err)) << err;
    if (const auto* e = ev.find("ev")) {
      events.emplace_back(e->str,
                          static_cast<int>(ev.int_or("job", -1)));
    }
  }
  const auto index_of = [&events](const char* kind, int job) {
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].first == kind && events[i].second == job) return i;
    }
    return events.size();
  };
  ASSERT_LT(index_of("job_finish", ia), events.size());
  EXPECT_LT(index_of("job_finish", ia), index_of("job_start", ib));
  EXPECT_LT(index_of("job_finish", ib), index_of("job_start", ic));
  EXPECT_LT(index_of("run_start", -1), index_of("job_start", ia));
}

TEST(JobGraph, CycleThrows) {
  JobGraph graph;
  InlYieldJob a = small_inl_job();
  InlYieldJob b = small_inl_job();
  b.seed = 9;
  const JobId ia = graph.add(a);
  const JobId ib = graph.add(b);
  graph.depend(ib, ia);
  graph.depend(ia, ib);
  EXPECT_THROW(graph.run_all(), std::runtime_error);
  EXPECT_THROW(graph.depend(ia, ia), std::invalid_argument);
}

// --- JSON parser -----------------------------------------------------------

TEST(Json, ParsesRequestShapes) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(parse_json(
      R"({"schema":"csdac-request/1","n":-2.5e3,"flag":true,)"
      R"("axis":{"lo":0.1,"steps":8},"jobs":[1,"two",null]})",
      v, &err))
      << err;
  EXPECT_EQ(v.string_or("schema", ""), "csdac-request/1");
  EXPECT_EQ(v.number_or("n", 0), -2500.0);
  EXPECT_EQ(v.int_or("n", 0), -2500);
  EXPECT_TRUE(v.bool_or("flag", false));
  const JsonValue* axis = v.find("axis");
  ASSERT_NE(axis, nullptr);
  EXPECT_EQ(axis->number_or("lo", 0), 0.1);
  EXPECT_EQ(axis->int_or("steps", 0), 8);
  EXPECT_EQ(axis->int_or("missing", 77), 77);
  const JsonValue* jobs = v.find("jobs");
  ASSERT_NE(jobs, nullptr);
  ASSERT_EQ(jobs->arr.size(), 3u);
  EXPECT_TRUE(jobs->arr[0].is_number());
  EXPECT_EQ(jobs->arr[1].str, "two");
  EXPECT_TRUE(jobs->arr[2].is_null());
}

TEST(Json, EscapesRoundTrip) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(parse_json(R"({"s":"a\"b\\c\ndé"})", v, &err)) << err;
  EXPECT_EQ(v.string_or("s", ""), "a\"b\\c\nd\xc3\xa9");
}

TEST(Json, RejectsMalformedInput) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(parse_json("", v, &err));
  EXPECT_FALSE(parse_json("{", v, &err));
  EXPECT_FALSE(parse_json(R"({"a":1,})", v, &err));
  EXPECT_FALSE(parse_json(R"({"a" 1})", v, &err));
  EXPECT_FALSE(parse_json("[1,2", v, &err));
  EXPECT_FALSE(parse_json("{}trailing", v, &err));
  EXPECT_FALSE(parse_json(R"({"x":1e999})", v, &err));  // non-finite
  EXPECT_FALSE(err.empty());
}

TEST(JsonLine, HostileStringsStayValidJson) {
  // Keys and values with quotes, backslashes, and control bytes must come
  // back intact through the parser — one escaper serves every writer.
  const std::string hostile = "a\"b\\c\nd\te\x01f";
  const JsonLine line = JsonLine()
                            .field("ev", hostile)
                            .field(hostile, "v")
                            .field("n", std::int64_t{-3});
  JsonValue v;
  std::string err;
  ASSERT_TRUE(parse_json(line.str(), v, &err)) << err << "\n" << line.str();
  EXPECT_EQ(v.string_or("ev", ""), hostile);
  EXPECT_EQ(v.string_or(hostile, ""), "v");
  EXPECT_EQ(v.int_or("n", 0), -3);
}

// --- Trace schema ----------------------------------------------------------

TEST(Trace, RunEmitsSchemaTagAndSpans) {
  ScratchDir dir("trace2");
  RuntimeOptions opts;
  opts.threads = 2;
  opts.trace_path = (dir.path / "trace.jsonl").string();
  fs::create_directories(dir.path);
  {
    JobGraph graph(opts);
    graph.add(small_inl_job(), "traced");
    graph.run_all();
  }

  std::ifstream in(opts.trace_path);
  ASSERT_TRUE(in.good());
  std::string line;
  bool saw_schema = false;
  std::vector<JsonValue> spans;
  while (std::getline(in, line)) {
    JsonValue ev;
    std::string err;
    ASSERT_TRUE(parse_json(line, ev, &err)) << err << "\n" << line;
    const std::string kind = ev.string_or("ev", "");
    if (kind == "run_start") {
      EXPECT_EQ(ev.string_or("schema", ""), kTraceSchema);
      saw_schema = true;
    } else if (kind == "span") {
      spans.push_back(ev);
    }
  }
  EXPECT_TRUE(saw_schema);
  ASSERT_FALSE(spans.empty());

  bool saw_run = false, saw_job = false;
  std::int64_t run_id = 0, job_parent = -1;
  for (const auto& s : spans) {
    EXPECT_GT(s.int_or("id", 0), 0);
    EXPECT_GE(s.int_or("dur_us", -1), 0);
    const std::string name = s.string_or("name", "");
    if (name == "graph.run") {
      saw_run = true;
      run_id = s.int_or("id", 0);
    } else if (name == "graph.job") {
      saw_job = true;
      job_parent = s.int_or("parent", -1);
      EXPECT_EQ(s.string_or("attr.label", ""), "traced");
      EXPECT_EQ(s.string_or("attr.cache", ""), "off");
    }
  }
  EXPECT_TRUE(saw_run);
  ASSERT_TRUE(saw_job);
  // The job span nests under the run span.
  EXPECT_EQ(job_parent, run_id);
}

}  // namespace
}  // namespace csdac::runtime
