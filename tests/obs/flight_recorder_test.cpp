// Flight recorder: ring semantics (most-recent-N retention, truncation of
// oversized names/ids), the seqlock write/read protocol under a
// concurrent writer storm with snapshots racing the writers (the TSan CI
// tier runs this suite), and the Chrome-trace rendering of the ring.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "runtime/json.hpp"

namespace obs = csdac::obs;
namespace runtime = csdac::runtime;

namespace {

TEST(FlightRecorder, RecordsEventsOldestFirst) {
  obs::FlightRecorder rec(16);
  rec.record(obs::FlightEventKind::kRequest, "serve.request", "t-1", 10.0,
             5.0, 3);
  rec.record(obs::FlightEventKind::kSpan, "exec.job", "t-1", 12.0, 2.0);
  rec.record(obs::FlightEventKind::kError, "bad_json", "", 20.0, 0.0);

  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name_view(), "serve.request");
  EXPECT_EQ(events[0].trace_view(), "t-1");
  EXPECT_EQ(events[0].kind, obs::FlightEventKind::kRequest);
  EXPECT_DOUBLE_EQ(events[0].start_us, 10.0);
  EXPECT_DOUBLE_EQ(events[0].dur_us, 5.0);
  EXPECT_EQ(events[0].arg, 3);
  EXPECT_EQ(events[1].name_view(), "exec.job");
  EXPECT_EQ(events[2].name_view(), "bad_json");
  EXPECT_EQ(events[2].trace_view(), "");
  EXPECT_EQ(rec.total_recorded(), 3);
  EXPECT_EQ(rec.dropped(), 0);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  obs::FlightRecorder rec(100);
  EXPECT_EQ(rec.capacity(), 128u);
}

TEST(FlightRecorder, TruncatesOversizedNamesAndTraces) {
  obs::FlightRecorder rec(4);
  const std::string long_name(3 * obs::kFlightNameBytes, 'n');
  const std::string long_trace(3 * obs::kFlightTraceBytes, 't');
  rec.record(obs::FlightEventKind::kSpan, long_name, long_trace, 1.0, 1.0);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_LE(events[0].name_view().size(), obs::kFlightNameBytes);
  EXPECT_LE(events[0].trace_view().size(), obs::kFlightTraceBytes);
  EXPECT_EQ(events[0].name_view(),
            long_name.substr(0, events[0].name_view().size()));
  EXPECT_EQ(events[0].trace_view(),
            long_trace.substr(0, events[0].trace_view().size()));
}

TEST(FlightRecorder, RingKeepsTheMostRecentEvents) {
  obs::FlightRecorder rec(8);
  for (int i = 0; i < 100; ++i) {
    rec.record(obs::FlightEventKind::kSpan, "e", "", double(i), 1.0, i);
  }
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Single-threaded writes never drop; the survivors are exactly the
  // last ring-generation, oldest first.
  EXPECT_EQ(rec.dropped(), 0);
  EXPECT_EQ(rec.total_recorded(), 100);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(events[i].arg, 92 + i);
  }
}

TEST(FlightRecorder, ConcurrentWritersNeverTearAnEvent) {
  constexpr int kWriters = 6;
  constexpr int kPerWriter = 4000;
  obs::FlightRecorder rec(512);

  // A torn read would pair one writer's name with another's trace or
  // arg; every observed event must be internally consistent.
  const auto consistent = [](const obs::FlightEvent& ev) {
    const std::string name(ev.name_view());
    const std::string trace(ev.trace_view());
    if (name.rfind("writer-", 0) != 0) return false;
    const int t = std::stoi(name.substr(7));
    const long long i = ev.arg - 1000000LL * t;
    if (i < 0 || i >= kPerWriter) return false;
    return trace ==
           std::string("w").append(std::to_string(t)) + "-" + std::to_string(i);
  };

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&rec, t] {
      const std::string name = "writer-" + std::to_string(t);
      for (int i = 0; i < kPerWriter; ++i) {
        rec.record(obs::FlightEventKind::kSpan, name,
                   std::string("w").append(std::to_string(t)) + "-" +
                       std::to_string(i),
                   double(i), 1.0, 1000000LL * t + i);
      }
    });
  }
  // Snapshots race the writers; nothing torn may ever surface.
  for (int pass = 0; pass < 50; ++pass) {
    for (const auto& ev : rec.snapshot()) {
      ASSERT_TRUE(consistent(ev))
          << ev.name_view() << " / " << ev.trace_view() << " / " << ev.arg;
    }
  }
  for (auto& th : writers) th.join();

  EXPECT_EQ(rec.total_recorded(), kWriters * kPerWriter);
  const auto final_events = rec.snapshot();
  EXPECT_LE(final_events.size(), rec.capacity());
  EXPECT_GE(static_cast<long long>(final_events.size()),
            static_cast<long long>(rec.capacity()) - rec.dropped());
  for (const auto& ev : final_events) {
    ASSERT_TRUE(consistent(ev))
        << ev.name_view() << " / " << ev.trace_view() << " / " << ev.arg;
  }
}

TEST(FlightRecorder, ChromeTraceRenderingCarriesTraceIds) {
  obs::FlightRecorder rec(16);
  rec.record(obs::FlightEventKind::kRequest, "serve.request", "t-render",
             5.0, 100.0, 2);
  rec.record(obs::FlightEventKind::kError, "bad_job", "t-render", 50.0,
             0.0);

  runtime::JsonValue doc;
  std::string err;
  ASSERT_TRUE(
      runtime::parse_json(rec.chrome_trace_json("unit-test"), doc, &err))
      << err;
  const auto* events = doc.find("traceEvents");
  ASSERT_TRUE(events && events->is_array());
  int complete = 0;
  bool saw_trace = false;
  for (const auto& ev : events->arr) {
    if (ev.string_or("ph", "") != "X") continue;
    ++complete;
    const auto* args = ev.find("args");
    ASSERT_TRUE(args);
    if (args->string_or("trace_id", "") == "t-render") saw_trace = true;
  }
  EXPECT_EQ(complete, 2);
  EXPECT_TRUE(saw_trace);
}

TEST(FlightRecorder, DumpWritesALoadableFile) {
  obs::FlightRecorder rec(16);
  rec.record(obs::FlightEventKind::kSpan, "sched.job", "t-dump", 1.0, 2.0);
  const std::string path =
      ::testing::TempDir() + "csdac_flight_dump_test.json";
  ASSERT_TRUE(rec.dump(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text(1 << 16, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  runtime::JsonValue doc;
  std::string err;
  ASSERT_TRUE(runtime::parse_json(text, doc, &err)) << err;
  EXPECT_TRUE(doc.find("traceEvents"));
}

}  // namespace
