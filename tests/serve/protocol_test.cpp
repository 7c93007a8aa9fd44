// Protocol-robustness tests for the network server: well-formed requests
// round-trip; malformed payloads (bad JSON, wrong schema, bad jobs, the
// hostile-input corpus under tests/serve/corpus/) get structured error
// frames on a connection that stays open; framing violations (bad magic,
// oversized frames, truncation, mid-request disconnects) drop only that
// connection while the server keeps serving everyone else.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/json.hpp"
#include "serve/client.hpp"
#include "serve/request.hpp"
#include "serve/response.hpp"
#include "serve/server.hpp"

namespace csdac::serve {
namespace {

namespace fs = std::filesystem;

constexpr const char* kGoodRequest =
    "{\"schema\":\"csdac-request/1\",\"jobs\":[{\"id\":\"q\","
    "\"kind\":\"inl_yield\",\"chips\":40,\"seed\":42}]}";

/// Server on an ephemeral loopback port, RAM-only cache tiers. Skips the
/// suite when the sandbox forbids binding sockets.
struct ServerFixture {
  std::unique_ptr<Server> server;
  std::string skip_reason;

  explicit ServerFixture(std::uint32_t max_frame = kDefaultMaxFrameBytes) {
    ServerOptions o;
    o.max_frame_bytes = max_frame;
    o.sched.workers = 2;
    o.sched.exec.hot_bytes = 1 << 20;
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

  Client connect() {
    Client c;
    std::string err;
    EXPECT_TRUE(c.connect("127.0.0.1", server->port(), &err)) << err;
    return c;
  }
};

#define REQUIRE_SERVER(fx)                             \
  if (!(fx).server) {                                  \
    GTEST_SKIP() << "cannot run a loopback server: " + \
                        (fx).skip_reason;              \
  }

runtime::JsonValue parse_reply(const std::string& reply) {
  runtime::JsonValue doc;
  std::string err;
  EXPECT_TRUE(runtime::parse_json(reply, doc, &err)) << err << ": " << reply;
  return doc;
}

std::string error_code(const runtime::JsonValue& doc) {
  const auto* error = doc.find("error");
  return error ? error->string_or("code", "") : "";
}

TEST(Protocol, GoodRequestRoundTrips) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  Client c = fx.connect();
  std::string reply;
  ASSERT_EQ(c.call(kGoodRequest, reply), FrameStatus::kOk);
  const runtime::JsonValue doc = parse_reply(reply);
  EXPECT_EQ(doc.string_or("schema", ""), kResponseSchema);
  EXPECT_EQ(error_code(doc), "");
  const auto* jobs = doc.find("jobs");
  ASSERT_TRUE(jobs && jobs->is_array());
  ASSERT_EQ(jobs->arr.size(), 1u);
  EXPECT_EQ(jobs->arr[0].string_or("id", ""), "q");
  const auto* result = jobs->arr[0].find("result");
  ASSERT_TRUE(result);
  const double yield = result->number_or("yield", -1.0);
  EXPECT_GE(yield, 0.0);
  EXPECT_LE(yield, 1.0);
}

TEST(Protocol, PayloadErrorsKeepTheConnectionServing) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  Client c = fx.connect();
  const struct {
    const char* payload;
    const char* code;
  } cases[] = {
      {"{not json", "bad_json"},
      {"{\"schema\":\"csdac-request/7\",\"jobs\":[{}]}", "bad_schema"},
      {"{\"schema\":\"csdac-request/1\",\"jobs\":[]}", "bad_request"},
      {"{\"schema\":\"csdac-request/1\","
       "\"jobs\":[{\"kind\":\"nonsense\"}]}",
       "bad_job"},
      {"{\"schema\":\"csdac-ctl/1\",\"cmd\":\"rm-rf\"}", "bad_ctl"},
  };
  std::string reply;
  for (const auto& tc : cases) {
    ASSERT_EQ(c.call(tc.payload, reply), FrameStatus::kOk) << tc.payload;
    EXPECT_EQ(error_code(parse_reply(reply)), tc.code) << tc.payload;
  }
  // The SAME connection still answers real questions afterwards.
  ASSERT_EQ(c.call(kGoodRequest, reply), FrameStatus::kOk);
  EXPECT_EQ(error_code(parse_reply(reply)), "");
}

TEST(Protocol, HostileCorpusNeverCrashesOrSucceeds) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  const fs::path corpus(CSDAC_SERVE_CORPUS_DIR);
  ASSERT_TRUE(fs::is_directory(corpus)) << corpus;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    files.push_back(entry.path());
  }
  ASSERT_GE(files.size(), 10u) << "corpus went missing";

  Client c = fx.connect();
  std::string reply;
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    ASSERT_EQ(c.call(buf.str(), reply), FrameStatus::kOk) << file;
    EXPECT_NE(error_code(parse_reply(reply)), "")
        << file << " was accepted instead of rejected";
  }
  // Still alive, still correct.
  ASSERT_EQ(c.call(kGoodRequest, reply), FrameStatus::kOk);
  EXPECT_EQ(error_code(parse_reply(reply)), "");
}

TEST(Protocol, BadMagicGetsErrorFrameAndDrop) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  Client c = fx.connect();
  const unsigned char junk[8] = {'H', 'T', 'T', 'P', 1, 0, 0, 0};
  ASSERT_TRUE(c.send_raw(junk, sizeof(junk)));
  std::string reply;
  ASSERT_EQ(c.recv(reply), FrameStatus::kOk);
  EXPECT_EQ(error_code(parse_reply(reply)), "bad_magic");
  // The server hung up: the next read is EOF (or a reset).
  EXPECT_NE(c.recv(reply), FrameStatus::kOk);
}

TEST(Protocol, OversizedFrameIsRejectedBeforeParsing) {
  ServerFixture fx(/*max_frame=*/4096);
  REQUIRE_SERVER(fx);
  Client c = fx.connect();
  const std::string big(8192, 'a');
  ASSERT_TRUE(c.send(big));
  std::string reply;
  ASSERT_EQ(c.recv(reply), FrameStatus::kOk);
  EXPECT_EQ(error_code(parse_reply(reply)), "frame_too_large");
  EXPECT_NE(c.recv(reply), FrameStatus::kOk);
}

TEST(Protocol, MidRequestDisconnectLeavesServerServing) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  {
    // Claim a frame of 100 bytes, send 10, vanish.
    Client dropper = fx.connect();
    const unsigned char hdr[8] = {'C', 'S', 'F', '1', 100, 0, 0, 0};
    ASSERT_TRUE(dropper.send_raw(hdr, sizeof(hdr)));
    ASSERT_TRUE(dropper.send_raw("partial!!!", 10));
  }
  Client c = fx.connect();
  std::string reply;
  ASSERT_EQ(c.call(kGoodRequest, reply), FrameStatus::kOk);
  EXPECT_EQ(error_code(parse_reply(reply)), "");
}

TEST(Protocol, EndedConnectionsLeaveNoUnjoinedThreads) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  // One short connection after another: each accept joins the threads of
  // the connections that ended before it, so the count stays bounded by
  // the live-connection cap instead of growing with every connection.
  constexpr int kConnections = 1000;
  const std::string ping = "{\"schema\":\"csdac-ctl/1\",\"cmd\":\"ping\"}";
  for (int i = 0; i < kConnections; ++i) {
    Client c = fx.connect();
    std::string reply;
    ASSERT_EQ(c.call(ping, reply), FrameStatus::kOk) << "connection " << i;
  }
  EXPECT_LE(fx.server->connection_threads(),
            static_cast<std::size_t>(ServerOptions{}.max_connections));
  EXPECT_EQ(fx.server->counters().connections, kConnections);
  // stop() still joins whatever is left.
  fx.server->stop();
  EXPECT_EQ(fx.server->connection_threads(), 0u);
}

TEST(Protocol, PingReportsWorkers) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  Client c = fx.connect();
  std::string reply;
  ASSERT_EQ(c.call("{\"schema\":\"csdac-ctl/1\",\"cmd\":\"ping\"}", reply),
            FrameStatus::kOk);
  const runtime::JsonValue doc = parse_reply(reply);
  EXPECT_EQ(doc.string_or("schema", ""), std::string(kControlSchema));
  EXPECT_TRUE(doc.bool_or("ok", false));
  EXPECT_EQ(doc.int_or("workers", -1), 2);
}

TEST(Protocol, MetricsCommandReturnsPrometheusText) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  Client c = fx.connect();
  std::string reply;
  ASSERT_EQ(c.call(kGoodRequest, reply), FrameStatus::kOk);
  ASSERT_EQ(
      c.call("{\"schema\":\"csdac-ctl/1\",\"cmd\":\"metrics\"}", reply),
      FrameStatus::kOk);
  const runtime::JsonValue doc = parse_reply(reply);
  EXPECT_TRUE(doc.bool_or("ok", false));
  const std::string prom = doc.string_or("prometheus", "");
  EXPECT_NE(prom.find("csdac_serve_requests_total"), std::string::npos);
  EXPECT_NE(prom.find("csdac_serve_connections_total"), std::string::npos);
}

TEST(Protocol, ShutdownCommandStopsTheServer) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  Client c = fx.connect();
  std::string reply;
  ASSERT_EQ(
      c.call("{\"schema\":\"csdac-ctl/1\",\"cmd\":\"shutdown\"}", reply),
      FrameStatus::kOk);
  EXPECT_TRUE(parse_reply(reply).bool_or("ok", false));
  fx.server->wait();  // returns because shutdown was acknowledged
  EXPECT_TRUE(fx.server->shutdown_requested());
}

TEST(Protocol, RequestEmbedsMetricsWhenAsked) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  Client c = fx.connect();
  std::string reply;
  const std::string with_metrics =
      "{\"schema\":\"csdac-request/1\",\"metrics\":true,"
      "\"jobs\":[{\"kind\":\"inl_yield\",\"chips\":40,\"seed\":43}]}";
  ASSERT_EQ(c.call(with_metrics, reply), FrameStatus::kOk);
  const runtime::JsonValue doc = parse_reply(reply);
  const auto* metrics = doc.find("metrics");
  ASSERT_TRUE(metrics && metrics->is_object());
  EXPECT_TRUE(metrics->find("counters"));
}

}  // namespace
}  // namespace csdac::serve
