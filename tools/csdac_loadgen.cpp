// Load generator for the design server: N concurrent clients firing
// overlapping job sets at one csdac_serve --listen process, measuring
// per-request latency (p50/p99) and saturation throughput, and verifying
// that every client sees bit-identical results for the same question —
// the server-side scheduler dedups and caches, but must never change an
// answer. Emits a machine-readable csdac-bench/5 document (validated in
// CI by tools/check_bench_json.py, serve-smoke job).
//
//   csdac_loadgen --port N [--host H] [--port-file PATH] [--clients C]
//                 [--requests R] [--jobs-per-request J] [--unique K]
//                 [--chips N] [--out BENCH.json] [--smoke]
//
// Client c's r-th request asks for jobs (c + r + j) % K of K unique
// questions, so concurrent clients collide on the same keys constantly —
// the worst (best) case for cross-request dedup. Exits nonzero on any
// transport error, error frame, or cross-client result mismatch.
//
// Every request carries a "trace_id" (lg-<client>-<r>) the server must
// echo; replies' per-job "stages" objects are aggregated into a
// server-side latency attribution (admission / queue / hot / disk /
// compute / store / serialize, mean us per job) reported next to the
// client-observed p50/p99 — a cold run shows the compute stage dominating
// and a warm run attributes ~0 us to compute.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "obs/json_escape.hpp"
#include "runtime/json.hpp"
#include "serve/client.hpp"
#include "serve/response.hpp"

using namespace csdac;

namespace {

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "csdac_loadgen: %s\n", msg.c_str());
  std::exit(1);
}

struct Options {
  std::string host = "127.0.0.1";
  std::string port_file;
  std::string out_path = "BENCH_serve.json";
  int port = 0;
  int clients = 4;
  int requests = 8;  ///< per client
  int jobs_per_request = 1;
  int unique = 4;  ///< distinct questions across the whole run
  int chips = 200;
  bool smoke = false;
};

Options parse_args(int argc, char** argv) {
  Options o;
  const auto value = [&](int& a) -> const char* {
    if (a + 1 >= argc) die("missing value for " + std::string(argv[a]));
    return argv[++a];
  };
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--host") == 0) o.host = value(a);
    else if (std::strcmp(argv[a], "--port") == 0) o.port = std::atoi(value(a));
    else if (std::strcmp(argv[a], "--port-file") == 0) o.port_file = value(a);
    else if (std::strcmp(argv[a], "--clients") == 0)
      o.clients = std::atoi(value(a));
    else if (std::strcmp(argv[a], "--requests") == 0)
      o.requests = std::atoi(value(a));
    else if (std::strcmp(argv[a], "--jobs-per-request") == 0)
      o.jobs_per_request = std::atoi(value(a));
    else if (std::strcmp(argv[a], "--unique") == 0)
      o.unique = std::atoi(value(a));
    else if (std::strcmp(argv[a], "--chips") == 0)
      o.chips = std::atoi(value(a));
    else if (std::strcmp(argv[a], "--out") == 0) o.out_path = value(a);
    else if (std::strcmp(argv[a], "--smoke") == 0) o.smoke = true;
    else die("unknown argument " + std::string(argv[a]));
  }
  if (o.clients < 1 || o.requests < 1 || o.jobs_per_request < 1 ||
      o.unique < 1 || o.chips < 1) {
    die("counts must be positive");
  }
  if (!o.port_file.empty()) {
    // The server is usually started in the background right before the
    // loadgen; give it a bounded moment to bind and write the file.
    for (int attempt = 0; o.port <= 0 && attempt < 50; ++attempt) {
      if (attempt) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      std::ifstream pf(o.port_file);
      if (pf && (pf >> o.port)) break;
    }
    if (o.port <= 0) die("cannot read port from " + o.port_file);
  }
  if (o.port <= 0) die("no --port (or --port-file) given");
  return o;
}

/// The u-th unique question: a small INL-yield study whose seed encodes u,
/// so distinct u have distinct cache keys and identical u are identical.
std::string job_payload(int u, int chips) {
  bench::JsonWriter w;
  w.begin_object();
  w.field("id", std::string("u").append(std::to_string(u)));
  w.field("kind", "inl_yield");
  w.field("chips", chips);
  w.field("seed", 7000 + u);
  w.field("sigma_mult", 1.0);
  w.end_object();
  return w.str();
}

std::string loadgen_trace_id(int client, int r) {
  return "lg-" + std::to_string(client) + "-" + std::to_string(r);
}

std::string request_payload(const Options& o, int client, int r) {
  bench::JsonWriter w;
  w.begin_object();
  w.field("schema", "csdac-request/1");
  w.field("trace_id", loadgen_trace_id(client, r));
  w.key("jobs").begin_array();
  for (int j = 0; j < o.jobs_per_request; ++j) {
    w.raw(job_payload((client + r + j) % o.unique, o.chips));
  }
  w.end_array();
  w.end_object();
  return w.str();
}

/// Canonical serialization of a parsed JSON value, for byte-comparing
/// "result" objects across clients (insertion order is parse order, which
/// is identical for identical server output).
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
    case T::kArray:
      out += '[';
      for (std::size_t i = 0; i < v.arr.size(); ++i) {
        if (i) out += ',';
        dump_json(v.arr[i], out);
      }
      out += ']';
      break;
    case T::kObject:
      out += '{';
      for (std::size_t i = 0; i < v.obj.size(); ++i) {
        if (i) out += ',';
        out += '"';
        obs::append_json_escaped(out, v.obj[i].first);
        out += "\":";
        dump_json(v.obj[i].second, out);
      }
      out += '}';
      break;
  }
}

/// The per-job stage fields of a serve/4 reply, aggregation order.
constexpr const char* kStageFields[] = {
    "admission_us", "queue_us", "compute_us", "hot_us",
    "disk_us",      "store_us", "serialize_us"};
constexpr int kNumStages = 7;

struct Shared {
  std::mutex mutex;
  std::map<std::string, std::string> results;  ///< job id -> result JSON
  std::vector<double> latencies_us;
  std::int64_t errors = 0;
  std::int64_t mismatches = 0;
  std::int64_t chip_evals = 0;
  std::int64_t requests = 0;
  std::int64_t stage_sums[kNumStages] = {};  ///< summed over all jobs
  std::int64_t stage_jobs = 0;  ///< jobs contributing stage records
};

void note_error(Shared& s, const std::string& msg) {
  std::lock_guard<std::mutex> lock(s.mutex);
  ++s.errors;
  std::fprintf(stderr, "csdac_loadgen: %s\n", msg.c_str());
}

bool connect_with_retry(serve::Client& c, const Options& o,
                        std::string* err) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    if (c.connect(o.host, o.port, err)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

void client_main(const Options& o, int client, Shared& s) {
  serve::Client conn;
  std::string err;
  if (!connect_with_retry(conn, o, &err)) {
    note_error(s, "client " + std::to_string(client) + ": " + err);
    return;
  }
  std::string reply;
  for (int r = 0; r < o.requests; ++r) {
    const std::string payload = request_payload(o, client, r);
    const auto t0 = std::chrono::steady_clock::now();
    const serve::FrameStatus st = conn.call(payload, reply);
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (st != serve::FrameStatus::kOk) {
      note_error(s, "client " + std::to_string(client) + " request " +
                        std::to_string(r) + ": transport " +
                        std::string(serve::frame_status_name(st)));
      return;
    }
    runtime::JsonValue doc;
    if (!runtime::parse_json(reply, doc, &err)) {
      note_error(s, "unparseable reply: " + err);
      return;
    }
    if (doc.find("error")) {
      std::string text;
      dump_json(*doc.find("error"), text);
      note_error(s, "server error: " + text);
      return;
    }
    if (doc.string_or("schema", "") != serve::kResponseSchema) {
      note_error(s, "unexpected reply schema");
      return;
    }
    if (doc.string_or("trace_id", "") != loadgen_trace_id(client, r)) {
      note_error(s, "reply does not echo the request trace_id");
      return;
    }
    const auto* jobs = doc.find("jobs");
    if (!jobs || !jobs->is_array()) {
      note_error(s, "reply has no jobs array");
      return;
    }

    std::lock_guard<std::mutex> lock(s.mutex);
    ++s.requests;
    s.latencies_us.push_back(us);
    if (const auto* summary = doc.find("summary")) {
      s.chip_evals += summary->int_or("chip_evals", 0);
    }
    for (const auto& job : jobs->arr) {
      if (job.find("error")) {
        ++s.errors;
        continue;
      }
      const std::string id = job.string_or("id", "");
      const auto* result = job.find("result");
      if (id.empty() || !result) {
        ++s.errors;
        continue;
      }
      if (const auto* stages = job.find("stages");
          stages && stages->is_object()) {
        ++s.stage_jobs;
        for (int st = 0; st < kNumStages; ++st) {
          s.stage_sums[st] += stages->int_or(kStageFields[st], 0);
        }
      }
      std::string text;
      dump_json(*result, text);
      const auto [it, fresh] = s.results.emplace(id, text);
      if (!fresh && it->second != text) {
        ++s.mismatches;
        std::fprintf(stderr,
                     "csdac_loadgen: MISMATCH on %s:\n  first: %s\n  "
                     "now:   %s\n",
                     id.c_str(), it->second.c_str(), text.c_str());
      }
    }
  }
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  Shared s;

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(o.clients));
  for (int c = 0; c < o.clients; ++c) {
    threads.emplace_back([&o, c, &s] { client_main(o, c, s); });
  }
  for (auto& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const double p50 = percentile(s.latencies_us, 0.50);
  const double p99 = percentile(s.latencies_us, 0.99);
  double mean = 0.0;
  for (const double v : s.latencies_us) mean += v;
  if (!s.latencies_us.empty()) {
    mean /= static_cast<double>(s.latencies_us.size());
  }
  const double rps = wall > 0 ? static_cast<double>(s.requests) / wall : 0;

  bench::JsonWriter w;
  w.begin_object();
  w.field("schema", "csdac-bench/5");
  const char* sha = std::getenv("GITHUB_SHA");
  w.field("git_sha", sha ? sha : "");
  w.field("generated_unix", static_cast<std::int64_t>(std::time(nullptr)));
  w.field("smoke", o.smoke);
  w.field("threads", o.clients);
  w.field("hardware_threads",
          static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  w.key("benches").begin_array();
  w.begin_object();
  w.field("name", "serve_loadgen");
  w.key("config").begin_object();
  w.field("host", o.host);
  w.field("port", o.port);
  w.field("clients", o.clients);
  w.field("requests_per_client", o.requests);
  w.field("jobs_per_request", o.jobs_per_request);
  w.field("unique_jobs", o.unique);
  w.field("chips", o.chips);
  w.end_object();
  w.key("serve").begin_object();
  w.field("requests", s.requests);
  w.field("errors", s.errors);
  w.field("mismatches", s.mismatches);
  w.field("wall_s", wall);
  w.field("requests_per_s", rps);
  w.field("p50_us", p50);
  w.field("p99_us", p99);
  w.field("mean_us", mean);
  w.field("chip_evals", s.chip_evals);
  // Server-side attribution: where the time went INSIDE the server,
  // summed over every job the run received stages for. The client p50/p99
  // above includes network + framing on top of these.
  w.key("server_stages").begin_object();
  w.field("jobs", s.stage_jobs);
  for (int st = 0; st < kNumStages; ++st) {
    w.field(kStageFields[st], s.stage_sums[st]);
  }
  w.end_object();
  w.end_object();
  w.end_object();
  w.end_array();
  w.end_object();

  std::ofstream out(o.out_path, std::ios::binary);
  if (!out) die("cannot write " + o.out_path);
  out << w.str() << "\n";
  out.close();

  std::printf(
      "csdac_loadgen: %lld requests from %d clients in %.3f s "
      "(%.1f req/s, p50 %.0f us, p99 %.0f us, %lld chip evals, "
      "%lld errors, %lld mismatches)\n",
      static_cast<long long>(s.requests), o.clients, wall, rps, p50, p99,
      static_cast<long long>(s.chip_evals),
      static_cast<long long>(s.errors),
      static_cast<long long>(s.mismatches));
  if (s.stage_jobs > 0) {
    std::printf("csdac_loadgen: server stages, mean us/job over %lld jobs:",
                static_cast<long long>(s.stage_jobs));
    for (int st = 0; st < kNumStages; ++st) {
      std::printf(" %s %.0f", kStageFields[st],
                  static_cast<double>(s.stage_sums[st]) /
                      static_cast<double>(s.stage_jobs));
    }
    std::printf("\n");
  }
  std::printf("wrote %s\n", o.out_path.c_str());
  return s.errors == 0 && s.mismatches == 0 &&
                 s.requests ==
                     static_cast<std::int64_t>(o.clients) * o.requests
             ? 0
             : 1;
}
