// Concurrency stress tests for the design server: many client threads,
// many requests, overlapping job sets. Two contracts under load:
//
//  * Correctness — every reply's result body is byte-identical to the
//    single-threaded answer (execute_job + emit_result), no matter how
//    many clients raced for it or which cache tier served it.
//
//  * Work conservation — the global Monte-Carlo chip counter moves by
//    exactly unique_jobs × chips: in-flight submissions dedup onto one
//    task and completed ones come from the hot tier, so a storm of
//    duplicate questions costs one computation each.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dac/static_analysis.hpp"
#include "obs/json_escape.hpp"
#include "runtime/job.hpp"
#include "runtime/json.hpp"
#include "serve/client.hpp"
#include "serve/request.hpp"
#include "serve/response.hpp"
#include "serve/server.hpp"

namespace csdac::serve {
namespace {

/// RAM-only server (no disk tier) so every test starts cold.
struct ServerFixture {
  std::unique_ptr<Server> server;
  std::string skip_reason;

  explicit ServerFixture(int max_inflight_per_client = 16) {
    ServerOptions o;
    o.sched.workers = 2;
    o.sched.max_inflight_per_client = max_inflight_per_client;
    o.sched.exec.hot_bytes = 4 << 20;
    try {
      server = std::make_unique<Server>(o);
      server->start();
    } catch (const std::exception& e) {
      skip_reason = e.what();
    }
  }
  ~ServerFixture() {
    if (server) server->stop();
  }
};

#define REQUIRE_SERVER(fx)                             \
  if (!(fx).server) {                                  \
    GTEST_SKIP() << "cannot run a loopback server: " + \
                        (fx).skip_reason;              \
  }

/// Canonical serialization of a parsed JSON value (insertion-ordered
/// keys, %.17g numbers — the same forms JsonWriter emits), so result
/// bodies from different replies compare byte-for-byte.
void dump_json(const runtime::JsonValue& v, std::string& out) {
  using T = runtime::JsonValue::Type;
  switch (v.type) {
    case T::kNull: out += "null"; break;
    case T::kBool: out += v.b ? "true" : "false"; break;
    case T::kNumber: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v.num);
      out += buf;
      break;
    }
    case T::kString:
      out += '"';
      obs::append_json_escaped(out, v.str);
      out += '"';
      break;
    case T::kArray: {
      out += '[';
      bool first = true;
      for (const auto& e : v.arr) {
        if (!first) out += ',';
        first = false;
        dump_json(e, out);
      }
      out += ']';
      break;
    }
    case T::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, e] : v.obj) {
        if (!first) out += ',';
        first = false;
        out += '"';
        obs::append_json_escaped(out, k);
        out += "\":";
        dump_json(e, out);
      }
      out += '}';
      break;
    }
  }
}

std::string dump_json(const runtime::JsonValue& v) {
  std::string out;
  dump_json(v, out);
  return out;
}

std::string job_text(int unique, std::uint64_t seed_base, int chips) {
  return "{\"id\":\"u" + std::to_string(unique) +
         "\",\"kind\":\"inl_yield\",\"chips\":" + std::to_string(chips) +
         ",\"seed\":" + std::to_string(seed_base + unique) + "}";
}

std::string single_job_request(int unique, std::uint64_t seed_base,
                               int chips) {
  return "{\"schema\":\"csdac-request/1\",\"jobs\":[" +
         job_text(unique, seed_base, chips) + "]}";
}

/// The single-threaded ground truth: parse the request text exactly as
/// the server does, execute the job directly, and canonicalize the
/// emitted result body.
std::string direct_result(int unique, std::uint64_t seed_base, int chips) {
  const auto jobs =
      parse_request_text(single_job_request(unique, seed_base, chips));
  const runtime::JobValue value =
      runtime::execute_job(jobs.at(0).job, 1, nullptr);
  bench::JsonWriter w;
  w.begin_object();
  emit_result(w, value);
  w.end_object();
  runtime::JsonValue doc;
  std::string err;
  EXPECT_TRUE(runtime::parse_json(w.str(), doc, &err)) << err;
  const auto* result = doc.find("result");
  EXPECT_TRUE(result);
  return result ? dump_json(*result) : std::string();
}

/// Parses one reply frame into {job id -> canonical result body},
/// recording any error via ADD_FAILURE so worker threads can use it.
std::map<std::string, std::string> reply_results(const std::string& reply) {
  std::map<std::string, std::string> out;
  runtime::JsonValue doc;
  std::string err;
  if (!runtime::parse_json(reply, doc, &err)) {
    ADD_FAILURE() << "bad reply JSON: " << err;
    return out;
  }
  if (const auto* error = doc.find("error")) {
    ADD_FAILURE() << "error frame: " << error->string_or("code", "?");
    return out;
  }
  const auto* jobs = doc.find("jobs");
  if (!jobs || !jobs->is_array()) {
    ADD_FAILURE() << "reply without jobs array";
    return out;
  }
  for (const auto& job : jobs->arr) {
    const auto* result = job.find("result");
    if (!result) {
      ADD_FAILURE() << "job without result: " << dump_json(job);
      continue;
    }
    out[job.string_or("id", "?")] = dump_json(*result);
  }
  return out;
}

struct StormConfig {
  int clients = 6;
  int requests = 4;
  int jobs_per_request = 2;
  int unique = 5;
  std::uint64_t seed_base = 9000;
  int chips = 150;
};

/// Runs `clients` threads × `requests` requests with overlapping job
/// sets and returns every (id -> result) observed. Job u appears in many
/// requests from many clients at once: (c + r + j) % unique.
std::map<std::string, std::vector<std::string>> run_storm(
    Server& server, const StormConfig& cfg) {
  std::mutex mutex;
  std::map<std::string, std::vector<std::string>> seen;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(cfg.clients));
  for (int c = 0; c < cfg.clients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      std::string err;
      if (!client.connect("127.0.0.1", server.port(), &err)) {
        ADD_FAILURE() << "connect: " << err;
        return;
      }
      for (int r = 0; r < cfg.requests; ++r) {
        std::string request = "{\"schema\":\"csdac-request/1\",\"jobs\":[";
        for (int j = 0; j < cfg.jobs_per_request; ++j) {
          if (j) request += ',';
          request += job_text((c + r + j) % cfg.unique, cfg.seed_base,
                              cfg.chips);
        }
        request += "]}";
        std::string reply;
        if (client.call(request, reply) != FrameStatus::kOk) {
          ADD_FAILURE() << "client " << c << " request " << r << " failed";
          return;
        }
        auto results = reply_results(reply);
        std::lock_guard<std::mutex> lock(mutex);
        for (auto& [id, body] : results) {
          seen[id].push_back(std::move(body));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return seen;
}

TEST(Stress, StormAfterSerialWarmupIsBitIdenticalAndFree) {
  StormConfig cfg;
  ServerFixture fx;
  REQUIRE_SERVER(fx);

  // Serial pass first: one client, one job per request, ground truth
  // computed directly. This is the "single-client serial run" the storm
  // must match byte-for-byte.
  std::map<std::string, std::string> serial;
  {
    Client c;
    std::string err;
    ASSERT_TRUE(c.connect("127.0.0.1", fx.server->port(), &err)) << err;
    for (int u = 0; u < cfg.unique; ++u) {
      std::string reply;
      ASSERT_EQ(
          c.call(single_job_request(u, cfg.seed_base, cfg.chips), reply),
          FrameStatus::kOk);
      auto results = reply_results(reply);
      ASSERT_EQ(results.size(), 1u);
      const std::string id = std::string("u").append(std::to_string(u));
      ASSERT_TRUE(results.count(id));
      EXPECT_EQ(results[id], direct_result(u, cfg.seed_base, cfg.chips))
          << "server diverged from the direct engine for " << id;
      serial[id] = results[id];
    }
  }

  // The serial pass populated the hot tier; the storm must be pure
  // cache traffic — zero additional chip evaluations.
  const std::int64_t chips_warm = dac::mc_chips_evaluated();
  const auto seen = run_storm(*fx.server, cfg);
  EXPECT_EQ(dac::mc_chips_evaluated(), chips_warm)
      << "a warm storm recomputed something";

  ASSERT_EQ(seen.size(), static_cast<std::size_t>(cfg.unique));
  std::size_t replies = 0;
  for (const auto& [id, bodies] : seen) {
    ASSERT_TRUE(serial.count(id)) << "unexpected job id " << id;
    for (const auto& body : bodies) {
      EXPECT_EQ(body, serial[id])
          << id << " diverged from the serial answer under load";
    }
    replies += bodies.size();
  }
  EXPECT_EQ(replies, static_cast<std::size_t>(cfg.clients * cfg.requests *
                                              cfg.jobs_per_request));
}

TEST(Stress, ColdStormComputesEachUniqueJobExactlyOnce) {
  StormConfig cfg;
  cfg.seed_base = 9500;  // disjoint from the warm-storm test's keys
  // A tight admission cap makes submits block and free slots under real
  // contention instead of everything fitting in one window.
  ServerFixture fx(/*max_inflight_per_client=*/2);
  REQUIRE_SERVER(fx);

  const std::int64_t chips0 = dac::mc_chips_evaluated();
  const auto seen = run_storm(*fx.server, cfg);

  // Dedup + hot tier: a cold storm of overlapping duplicates costs one
  // computation per unique key, never one per request.
  EXPECT_EQ(dac::mc_chips_evaluated() - chips0,
            static_cast<std::int64_t>(cfg.unique) * cfg.chips);

  ASSERT_EQ(seen.size(), static_cast<std::size_t>(cfg.unique));
  for (int u = 0; u < cfg.unique; ++u) {
    const std::string id = std::string("u").append(std::to_string(u));
    ASSERT_TRUE(seen.count(id)) << id << " never answered";
    const std::string want = direct_result(u, cfg.seed_base, cfg.chips);
    for (const auto& body : seen.at(id)) {
      EXPECT_EQ(body, want) << id << " diverged under a cold storm";
    }
  }

  // Every job landed on the shared scheduler (as a fresh task or a
  // dedup attachment); the chip-counter check above proves how few of
  // those actually computed anything.
  const auto sched = fx.server->scheduler().counters();
  EXPECT_EQ(sched.submitted + sched.dedup_inflight,
            static_cast<std::int64_t>(cfg.clients) * cfg.requests *
                cfg.jobs_per_request);
}

}  // namespace
}  // namespace csdac::serve
