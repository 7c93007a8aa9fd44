// The one answer path: csdac_serve's batch mode (serve::answer on a local
// Scheduler) and the network server (the same function behind a socket)
// answer one request text with the same ids, kinds, keys and result
// bytes, and a key repeated within the request is submitted once and
// reported as deduped by both.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "runtime/json.hpp"
#include "runtime/scheduler.hpp"
#include "serve/answer.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace csdac::serve {
namespace {

// Three entries, two unique keys: "a-again" repeats "a".
constexpr const char* kRequest =
    "{\"schema\":\"csdac-request/1\",\"jobs\":["
    "{\"id\":\"a\",\"kind\":\"inl_yield\",\"chips\":40,\"seed\":71},"
    "{\"id\":\"a-again\",\"kind\":\"inl_yield\",\"chips\":40,\"seed\":71},"
    "{\"id\":\"b\",\"kind\":\"dnl_yield\",\"chips\":40,\"seed\":72}]}";
constexpr std::int64_t kUniqueKeys = 2;

/// The raw bytes of every job's "result" object, in reply order.
std::vector<std::string> result_bytes(const std::string& reply) {
  const std::string jobs = reply.substr(0, reply.find(",\"summary\":"));
  const std::string key = "\"result\":";
  std::vector<std::string> out;
  for (std::size_t at = jobs.find(key); at != std::string::npos;
       at = jobs.find(key, at)) {
    const std::size_t begin = at + key.size();
    std::size_t i = begin;
    int depth = 0;
    bool in_string = false;
    for (; i < jobs.size(); ++i) {
      const char c = jobs[i];
      if (in_string) {
        if (c == '\\') ++i;
        else if (c == '"') in_string = false;
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{') {
        ++depth;
      } else if (c == '}' && --depth == 0) {
        break;
      }
    }
    out.push_back(jobs.substr(begin, i + 1 - begin));
    at = i;
  }
  return out;
}

runtime::JsonValue parse_reply(const std::string& reply) {
  runtime::JsonValue doc;
  std::string err;
  EXPECT_TRUE(runtime::parse_json(reply, doc, &err)) << err << ": " << reply;
  return doc;
}

TEST(AnswerPath, BatchAndServerAnswerTheSame) {
  // Batch: the shared entry point on a local scheduler with no cache
  // tier: only the fold keeps a repeated key from running twice.
  runtime::SchedulerOptions so;
  so.workers = 2;
  runtime::Scheduler sched(so);
  const Answer batch = answer(kRequest, sched, 0, /*metrics=*/true);
  ASSERT_FALSE(batch.refused) << batch.reply;
  EXPECT_EQ(batch.failed, 0);
  EXPECT_EQ(sched.counters().submitted, kUniqueKeys);
  EXPECT_EQ(sched.counters().dedup_inflight, 0);

  // Server: the same text over a loopback socket, on a fresh scheduler.
  ServerOptions o;
  o.sched.workers = 2;
  std::unique_ptr<Server> server;
  try {
    server = std::make_unique<Server>(o);
  } catch (const std::exception& e) {
    GTEST_SKIP() << "cannot run a loopback server: " << e.what();
  }
  server->start();
  Client client;
  std::string err, served;
  ASSERT_TRUE(client.connect("127.0.0.1", server->port(), &err)) << err;
  ASSERT_EQ(client.call(kRequest, served), FrameStatus::kOk);
  EXPECT_EQ(server->scheduler().counters().submitted, kUniqueKeys);
  server->stop();

  const std::string head = "{\"schema\":\"csdac-serve/4\",\"trace_id\":\"";
  EXPECT_EQ(batch.reply.compare(0, head.size(), head), 0) << batch.reply;
  EXPECT_EQ(served.compare(0, head.size(), head), 0) << served;

  const runtime::JsonValue b = parse_reply(batch.reply);
  const runtime::JsonValue s = parse_reply(served);
  EXPECT_TRUE(b.find("metrics")) << "batch replies embed the metrics block";
  EXPECT_FALSE(s.find("metrics")) << "the request did not ask for metrics";
  const auto* bj = b.find("jobs");
  const auto* sj = s.find("jobs");
  ASSERT_TRUE(bj && sj && bj->is_array() && sj->is_array());
  ASSERT_EQ(bj->arr.size(), 3u);
  ASSERT_EQ(sj->arr.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (const char* field : {"id", "kind", "key"}) {
      EXPECT_EQ(bj->arr[i].string_or(field, "?"),
                sj->arr[i].string_or(field, "!"))
          << "job " << i << " " << field;
    }
    const bool repeat = i == 1;
    EXPECT_EQ(bj->arr[i].bool_or("deduped", !repeat), repeat) << i;
    EXPECT_EQ(sj->arr[i].bool_or("deduped", !repeat), repeat) << i;
  }
  EXPECT_EQ(bj->arr[0].string_or("key", "?"),
            bj->arr[1].string_or("key", "!"));
  for (const runtime::JsonValue* doc : {&b, &s}) {
    const auto* summary = doc->find("summary");
    ASSERT_TRUE(summary);
    EXPECT_EQ(summary->int_or("requested", -1), 3);
    EXPECT_EQ(summary->int_or("deduped", -1), 1);
    EXPECT_EQ(summary->int_or("failed", -1), 0);
  }

  const std::vector<std::string> br = result_bytes(batch.reply);
  ASSERT_EQ(br.size(), 3u);
  EXPECT_EQ(br, result_bytes(served));
  EXPECT_EQ(br[0], br[1]);
}

TEST(AnswerPath, ControlPayloadsNeedTheHook) {
  runtime::SchedulerOptions so;
  so.workers = 1;
  runtime::Scheduler sched(so);
  const std::string ping = "{\"schema\":\"csdac-ctl/1\",\"cmd\":\"ping\"}";
  // Batch passes no hook: a control document is a request of the wrong
  // schema.
  const Answer refused = answer(ping, sched, 0);
  EXPECT_TRUE(refused.refused);
  EXPECT_FALSE(refused.control);
  EXPECT_NE(refused.reply.find("\"bad_schema\""), std::string::npos)
      << refused.reply;
  const Answer hooked =
      answer(ping, sched, 0, false, -1, [](const runtime::JsonValue& ctl) {
        return ctl.string_or("cmd", "");
      });
  EXPECT_TRUE(hooked.control);
  EXPECT_FALSE(hooked.refused);
  EXPECT_EQ(hooked.reply, "ping");
  EXPECT_EQ(sched.counters().submitted, 0);
}

}  // namespace
}  // namespace csdac::serve
