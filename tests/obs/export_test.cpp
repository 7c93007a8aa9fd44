#include <gtest/gtest.h>

#include <string>

#include "obs/chrome_trace.hpp"
#include "obs/json_escape.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "runtime/json.hpp"

namespace obs = csdac::obs;
namespace runtime = csdac::runtime;

namespace {

/// The hostile strings every exporter must survive.
constexpr const char* kHostile = "a\"b\\c\nd\te\rf\x01g";

runtime::JsonValue parse_or_die(const std::string& text) {
  runtime::JsonValue v;
  std::string err;
  EXPECT_TRUE(runtime::parse_json(text, v, &err)) << err << "\n" << text;
  return v;
}

}  // namespace

TEST(JsonEscape, HostileCharacters) {
  std::string out;
  obs::append_json_escaped(out, kHostile);
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd\\te\\rf\\u0001g");
  EXPECT_EQ(obs::json_quoted("plain"), "\"plain\"");
  // Escaped text embedded in a document must parse back to the original.
  const runtime::JsonValue v =
      parse_or_die("{\"k\":" + obs::json_quoted(kHostile) + "}");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("k")->str, kHostile);
}

TEST(SnapshotJson, ParsesAndCarriesValues) {
  obs::Registry r;
  r.counter("jobs").add(3);
  r.gauge("load").set(0.5);
  obs::Histogram& h = r.histogram("lat_us");
  h.observe(1);
  h.observe(3);
  h.observe(3);

  const runtime::JsonValue doc = parse_or_die(r.snapshot().to_json());
  const runtime::JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->int_or("jobs", -1), 3);
  const runtime::JsonValue* gauges = doc.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->number_or("load", -1.0), 0.5);
  const runtime::JsonValue* hist = doc.find("histograms")->find("lat_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->int_or("count", -1), 3);
  EXPECT_EQ(hist->int_or("sum", -1), 7);
  const runtime::JsonValue* buckets = hist->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_TRUE(buckets->is_array());
  // Sparse buckets: [le=1, count=1] and [le=3, count=2].
  ASSERT_EQ(buckets->arr.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets->arr[0].arr[0].num, 1.0);
  EXPECT_DOUBLE_EQ(buckets->arr[0].arr[1].num, 1.0);
  EXPECT_DOUBLE_EQ(buckets->arr[1].arr[0].num, 3.0);
  EXPECT_DOUBLE_EQ(buckets->arr[1].arr[1].num, 2.0);
}

TEST(SnapshotJson, HostileNamesStayValidJson) {
  obs::Registry r;
  r.counter(kHostile).add(1);
  const runtime::JsonValue doc = parse_or_die(r.snapshot().to_json());
  EXPECT_EQ(doc.find("counters")->int_or(kHostile, -1), 1);
}

TEST(PrometheusName, Sanitization) {
  EXPECT_EQ(obs::prometheus_name("csdac", "mc.chips_evaluated"),
            "csdac_mc_chips_evaluated");
  EXPECT_EQ(obs::prometheus_name("csdac", "engine.run_us"),
            "csdac_engine_run_us");
  EXPECT_EQ(obs::prometheus_name("", "7weird name!"), "_7weird_name_");
  EXPECT_EQ(obs::prometheus_name("csdac", "a\"b\nc"), "csdac_a_b_c");
}

TEST(Prometheus, GoldenExposition) {
  obs::Registry r;
  r.counter("cache.hits", "lookups served from disk").add(5);
  r.gauge("pool.load").set(1.5);
  obs::Histogram& h = r.histogram("job_us", "per-job wall time");
  h.observe(1);
  h.observe(3);
  h.observe(3);

  const std::string expected =
      "# HELP csdac_cache_hits_total lookups served from disk\n"
      "# TYPE csdac_cache_hits_total counter\n"
      "csdac_cache_hits_total 5\n"
      "# TYPE csdac_pool_load gauge\n"
      "csdac_pool_load 1.5\n"
      "# HELP csdac_job_us per-job wall time\n"
      "# TYPE csdac_job_us histogram\n"
      "csdac_job_us_bucket{le=\"0\"} 0\n"
      "csdac_job_us_bucket{le=\"1\"} 1\n"
      "csdac_job_us_bucket{le=\"3\"} 3\n"
      "csdac_job_us_bucket{le=\"+Inf\"} 3\n"
      "csdac_job_us_sum 7\n"
      "csdac_job_us_count 3\n";
  EXPECT_EQ(r.snapshot().to_prometheus(), expected);
}

TEST(Prometheus, LabeledSeriesShareOneTypeHeader) {
  obs::Registry r;
  r.counter("stage.jobs", {{"kind", "inl_yield"}}, "jobs per kind").add(2);
  r.counter("stage.jobs", {{"kind", "dnl_yield"}}, "jobs per kind").add(1);
  obs::Histogram& h =
      r.histogram("stage.us", {{"kind", "inl_yield"}, {"stage", "compute"}});
  h.observe(3);

  const std::string expected =
      "# HELP csdac_stage_jobs_total jobs per kind\n"
      "# TYPE csdac_stage_jobs_total counter\n"
      "csdac_stage_jobs_total{kind=\"dnl_yield\"} 1\n"
      "csdac_stage_jobs_total{kind=\"inl_yield\"} 2\n"
      "# TYPE csdac_stage_us histogram\n"
      "csdac_stage_us_bucket{kind=\"inl_yield\",stage=\"compute\","
      "le=\"0\"} 0\n"
      "csdac_stage_us_bucket{kind=\"inl_yield\",stage=\"compute\","
      "le=\"1\"} 0\n"
      "csdac_stage_us_bucket{kind=\"inl_yield\",stage=\"compute\","
      "le=\"3\"} 1\n"
      "csdac_stage_us_bucket{kind=\"inl_yield\",stage=\"compute\","
      "le=\"+Inf\"} 1\n"
      "csdac_stage_us_sum{kind=\"inl_yield\",stage=\"compute\"} 3\n"
      "csdac_stage_us_count{kind=\"inl_yield\",stage=\"compute\"} 1\n";
  EXPECT_EQ(r.snapshot().to_prometheus(), expected);
}

TEST(Prometheus, HostileLabelCorpusIsEscaped) {
  // Every value routed through the shared exposition escaper: backslash,
  // quote, and newline get escaped; everything else (spaces, braces,
  // commas, equals, tabs, UTF-8) passes through as bytes inside the
  // quoted value, which the text format permits.
  const struct {
    const char* value;
    const char* escaped;
  } corpus[] = {
      {"plain", "plain"},
      {"", ""},
      {"a\"b", "a\\\"b"},
      {"back\\slash", "back\\\\slash"},
      {"line\nbreak", "line\\nbreak"},
      {"\\n literal", "\\\\n literal"},
      {"sp ace", "sp ace"},
      {"{},=", "{},="},
      {"k=\"v\"", "k=\\\"v\\\""},
      {"tab\there", "tab\there"},
      {"\xc2\xb5s", "\xc2\xb5s"},
      {"\"\\\n", "\\\"\\\\\\n"},
  };
  for (const auto& tc : corpus) {
    const std::string labels =
        obs::prometheus_labels({{"v", tc.value}});
    EXPECT_EQ(labels, std::string("{v=\"") + tc.escaped + "\"}")
        << tc.value;
  }
  // Label KEYS are sanitized like metric names, not escaped.
  EXPECT_EQ(obs::prometheus_labels({{"weird key!", "x"}}),
            "{weird_key_=\"x\"}");

  // A hostile value embedded in a full exposition still renders one
  // parseable sample line per series.
  obs::Registry r;
  r.counter("hostile.hits", {{"src", "a\"b\\c\nd e"}}).add(7);
  const std::string out = r.snapshot().to_prometheus();
  EXPECT_NE(
      out.find(
          "csdac_hostile_hits_total{src=\"a\\\"b\\\\c\\nd e\"} 7\n"),
      std::string::npos)
      << out;
}

TEST(Prometheus, EmptyHistogramStillTerminatesWithInf) {
  // A registered-but-never-observed histogram must still be a complete
  // series: the +Inf bucket is emitted unconditionally so scrapers and
  // check_metrics.py never see a bucket list without a terminal bound.
  obs::Registry r;
  r.histogram("quiet_us");
  r.histogram("quiet.labeled_us", {{"kind", "x"}});
  const std::string expected =
      "# TYPE csdac_quiet_labeled_us histogram\n"
      "csdac_quiet_labeled_us_bucket{kind=\"x\",le=\"+Inf\"} 0\n"
      "csdac_quiet_labeled_us_sum{kind=\"x\"} 0\n"
      "csdac_quiet_labeled_us_count{kind=\"x\"} 0\n"
      "# TYPE csdac_quiet_us histogram\n"
      "csdac_quiet_us_bucket{le=\"+Inf\"} 0\n"
      "csdac_quiet_us_sum 0\n"
      "csdac_quiet_us_count 0\n";
  EXPECT_EQ(r.snapshot().to_prometheus(), expected);
}

TEST(Metrics, LabelOrderNamesOneSeries) {
  obs::Registry r;
  obs::Counter& a = r.counter("multi", {{"b", "2"}, {"a", "1"}});
  obs::Counter& b = r.counter("multi", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&a, &b);
  a.add(1);
  b.add(1);
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 2);
}

TEST(Metrics, OneTypePerNameAcrossLabeledAndPlain) {
  obs::Registry r;
  r.counter("typed", {{"k", "v"}});
  EXPECT_THROW(r.histogram("typed"), std::logic_error);
  EXPECT_THROW(r.gauge("typed", {{"k", "other"}}), std::logic_error);
}

TEST(ChromeTrace, ValidJsonWithNestedSpans) {
  obs::SpanCollector collector;
  obs::Tracer::global().add_sink(&collector);
  {
    obs::ScopedSpan outer("serve.request");
    outer.attr("jobs", 2);
    obs::ScopedSpan inner(kHostile);  // hostile span name must not corrupt
    inner.attr(kHostile, kHostile);
  }
  obs::Tracer::global().remove_sink(&collector);
  const auto spans = collector.take();
  ASSERT_EQ(spans.size(), 2u);

  const runtime::JsonValue doc =
      parse_or_die(obs::chrome_trace_json(spans, "unit\"test"));
  EXPECT_EQ(doc.string_or("displayTimeUnit", ""), "ms");
  const runtime::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  int complete = 0, metadata = 0;
  const runtime::JsonValue* outer_ev = nullptr;
  const runtime::JsonValue* inner_ev = nullptr;
  for (const auto& ev : events->arr) {
    const std::string ph = ev.string_or("ph", "");
    if (ph == "M") {
      ++metadata;
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++complete;
    if (ev.string_or("name", "") == "serve.request") outer_ev = &ev;
    if (ev.string_or("name", "") == kHostile) inner_ev = &ev;
  }
  EXPECT_EQ(complete, 2);
  EXPECT_GE(metadata, 1);
  ASSERT_NE(outer_ev, nullptr);
  ASSERT_NE(inner_ev, nullptr);
  // Complete events are sorted by start time: parent first.
  EXPECT_LE(outer_ev->number_or("ts", 1e300),
            inner_ev->number_or("ts", -1e300));
  const runtime::JsonValue* args = inner_ev->find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->string_or(kHostile, ""), kHostile);
  // Cross-reference: the child's parent arg matches the parent's span arg.
  EXPECT_EQ(args->int_or("parent", -1),
            outer_ev->find("args")->int_or("span", -2));
}
