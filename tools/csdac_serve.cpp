// Design-service front end, in two modes sharing one parser and one
// result emitter (src/serve/request.*, src/serve/response.*):
//
// Batch (default): reads a JSON request file describing many design
// questions (yield estimates, calibration studies, design-space sweeps,
// spectrum evaluations, architecture and SPICE studies), folds identical
// jobs by content key, runs the unique ones on a local runtime::Scheduler
// (--threads workers) over the persistent content-addressed cache, and
// writes a JSON response (schema "csdac-serve/2", which embeds a
// metrics-registry snapshot under "metrics"). A warm-cache run answers
// every question without a single Monte-Carlo chip evaluation — the CI
// batch smoke jobs assert exactly that from the response and the
// Prometheus dump.
//
//   csdac_serve REQUEST.json [--out PATH] [--cache DIR] [--no-cache]
//               [--cache-max-mb N] [--threads N]
//               [--metrics-out PATH] [--chrome-trace PATH]
//
// Server (--listen): persistent length-framed TCP service on the shared
// scheduler (src/serve/server.*): many concurrent clients, cross-request
// dedup, in-memory hot tier above the same disk cache, per-client
// admission control. Runs until SIGINT/SIGTERM or a ctl shutdown frame,
// then flushes the flight recorder (--flight-out) and metrics
// (--metrics-out) on EVERY exit path — signal, ctl shutdown, or a fatal
// error (std::terminate dumps the flight ring before aborting, so the
// last seconds of requests survive a crash).
//
//   csdac_serve --listen [--host H] [--port N] [--port-file PATH]
//               [--workers N] [--max-inflight N] [--max-connections N]
//               [--hot-mb N] [--cache DIR] [--no-cache] [--cache-max-mb N]
//               [--metrics-out PATH] [--flight-out PATH]
//               [--slow-us N] [--slow-log PATH]
//
// --slow-us N tail-samples requests taking >= N microseconds into the
// --slow-log JSONL file with a per-job stage breakdown (admission /
// queue / hot / disk / compute / store / serialize); 0 samples every
// request. Every request also carries a trace id (client-supplied
// "trace_id" or server-minted), visible in the slow log, the reply, and
// the flight-recorder dump.
//
// --metrics-out writes the full registry in Prometheus text exposition
// format after the batch (or on server exit). --chrome-trace collects
// every span of a batch run and writes Chrome trace_event JSON — open it
// in Perfetto or chrome://tracing for a flamegraph of serve.batch >
// sched.job > exec.job > mc.*.
//
// Request schema ("csdac-request/1"):
//   { "schema": "csdac-request/1", "jobs": [ <job>, ... ] }
// Every job object has "kind": one of inl_yield | cal_yield | sweep_basic
// | sweep_cascode | spectrum | inl_yield_is | inl_yield_strat |
// inl_yield_bridge | dyn_spectrum | arch_compare | spice_mc (the kName of
// each job struct in src/runtime/job.hpp, in JobKind order), or the alias
// dnl_yield (inl_yield judged on max|DNL|); an optional "id" echoed in
// the response; an optional "spec" object overriding DacSpec fields; and
// kind-specific fields, read by the kind's Params list in
// src/runtime/job.hpp (see EXPERIMENTS.md). Each result's fields are
// its Fields<T> list in src/runtime/job.hpp, except the sweep summary,
// the arch_compare table and the spice_mc "solver" object
// (src/serve/response.cpp).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "runtime/json.hpp"
#include "runtime/scheduler.hpp"
#include "serve/request.hpp"
#include "serve/response.hpp"
#include "serve/server.hpp"

using namespace csdac;

namespace {

struct RequestEntry {
  std::string id;    ///< echoed in the response
  std::size_t slot;  ///< unique job answering it (shared by duplicates)
};

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "csdac_serve: %s\n", msg.c_str());
  std::exit(1);
}

std::atomic<bool> g_signal_stop{false};

void on_signal(int) { g_signal_stop.store(true); }

struct Options {
  std::string request_path;
  std::string out_path = "serve_response.json";
  std::string cache_dir = ".csdac-cache";
  std::string metrics_path, chrome_path, port_file;
  std::string flight_path, slow_log;
  std::string host = "127.0.0.1";
  bool use_cache = true;
  bool listen = false;
  int threads = 0;
  int port = 0;
  int workers = 0;
  int max_inflight = 16;
  int max_connections = 64;
  double cache_max_mb = 256.0;
  double hot_mb = 64.0;
  long long slow_us = -1;  ///< >= 0 enables slow-request sampling
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: csdac_serve REQUEST.json [--out PATH] [--cache DIR] "
      "[--no-cache] [--cache-max-mb N] [--threads N] "
      "[--metrics-out PATH] [--chrome-trace PATH]\n"
      "       csdac_serve --listen [--host H] [--port N] "
      "[--port-file PATH] [--workers N] [--max-inflight N] "
      "[--max-connections N] [--hot-mb N] [--cache DIR] [--no-cache] "
      "[--cache-max-mb N] [--metrics-out PATH] "
      "[--flight-out PATH] [--slow-us N] [--slow-log PATH]\n");
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  const auto value = [&](int& a) -> const char* {
    if (a + 1 >= argc) usage();
    return argv[++a];
  };
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--out") == 0) o.out_path = value(a);
    else if (std::strcmp(argv[a], "--cache") == 0) o.cache_dir = value(a);
    else if (std::strcmp(argv[a], "--no-cache") == 0) o.use_cache = false;
    else if (std::strcmp(argv[a], "--cache-max-mb") == 0)
      o.cache_max_mb = std::atof(value(a));
    else if (std::strcmp(argv[a], "--metrics-out") == 0)
      o.metrics_path = value(a);
    else if (std::strcmp(argv[a], "--chrome-trace") == 0)
      o.chrome_path = value(a);
    else if (std::strcmp(argv[a], "--threads") == 0)
      o.threads = std::atoi(value(a));
    else if (std::strcmp(argv[a], "--listen") == 0) o.listen = true;
    else if (std::strcmp(argv[a], "--host") == 0) o.host = value(a);
    else if (std::strcmp(argv[a], "--port") == 0)
      o.port = std::atoi(value(a));
    else if (std::strcmp(argv[a], "--port-file") == 0)
      o.port_file = value(a);
    else if (std::strcmp(argv[a], "--workers") == 0)
      o.workers = std::atoi(value(a));
    else if (std::strcmp(argv[a], "--max-inflight") == 0)
      o.max_inflight = std::atoi(value(a));
    else if (std::strcmp(argv[a], "--max-connections") == 0)
      o.max_connections = std::atoi(value(a));
    else if (std::strcmp(argv[a], "--hot-mb") == 0)
      o.hot_mb = std::atof(value(a));
    else if (std::strcmp(argv[a], "--flight-out") == 0)
      o.flight_path = value(a);
    else if (std::strcmp(argv[a], "--slow-us") == 0)
      o.slow_us = std::atoll(value(a));
    else if (std::strcmp(argv[a], "--slow-log") == 0)
      o.slow_log = value(a);
    else if (argv[a][0] != '-' && o.request_path.empty())
      o.request_path = argv[a];
    else usage();
  }
  return o;
}

void dump_metrics(const std::string& path) {
  if (path.empty()) return;
  std::ofstream mout(path, std::ios::binary);
  if (!mout) die("cannot write " + path);
  mout << obs::Registry::global().snapshot().to_prometheus();
  std::printf("wrote %s\n", path.c_str());
}

void dump_flight(const std::string& path) {
  if (path.empty()) return;
  if (!obs::FlightRecorder::global().dump(path)) {
    std::fprintf(stderr, "csdac_serve: cannot write %s\n", path.c_str());
    return;
  }
  std::printf("wrote %s\n", path.c_str());
}

// Fatal-error artifact paths, latched before the server starts so the
// terminate handler (which cannot take arguments) can flush them. A
// crashing server still leaves its flight ring and final metrics behind.
std::string g_fatal_flight_path;
std::string g_fatal_metrics_path;

void on_terminate() {
  if (!g_fatal_flight_path.empty()) {
    obs::FlightRecorder::global().dump(g_fatal_flight_path);
  }
  if (!g_fatal_metrics_path.empty()) {
    std::ofstream mout(g_fatal_metrics_path, std::ios::binary);
    if (mout) mout << obs::Registry::global().snapshot().to_prometheus();
  }
  std::abort();
}

int run_server(const Options& o) {
  serve::ServerOptions so;
  so.host = o.host;
  so.port = o.port;
  so.max_connections = o.max_connections;
  so.slow_us = o.slow_us;
  so.slow_log = o.slow_log;
  so.sched.workers = o.workers;
  so.sched.threads_per_job = 1;
  so.sched.max_inflight_per_client = o.max_inflight;
  if (o.use_cache) so.sched.exec.cache_dir = o.cache_dir;
  so.sched.exec.cache_max_bytes =
      static_cast<std::uint64_t>(o.cache_max_mb * 1024.0 * 1024.0);
  so.sched.exec.hot_bytes =
      static_cast<std::uint64_t>(o.hot_mb * 1024.0 * 1024.0);

  serve::Server server(so);
  if (!o.port_file.empty()) {
    std::ofstream pf(o.port_file, std::ios::binary);
    if (!pf) die("cannot write " + o.port_file);
    pf << server.port() << "\n";
  }

  // The server records every request and span into the flight recorder;
  // the sink makes the tracer permanently active for this process, which
  // is the point — the ring must be populated BEFORE anyone asks for it.
  obs::FlightRecorder::install_global_span_sink();
  g_fatal_flight_path = o.flight_path;
  g_fatal_metrics_path = o.metrics_path;
  std::set_terminate(on_terminate);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  server.start();
  std::printf("csdac_serve: listening on %s:%d (%d workers, cache %s, "
              "hot %.0f MiB)\n",
              o.host.c_str(), server.port(), server.scheduler().workers(),
              o.use_cache ? o.cache_dir.c_str() : "off", o.hot_mb);
  std::fflush(stdout);

  while (!g_signal_stop.load() && !server.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // One flush sequence for every exit path — SIGINT/SIGTERM mid-batch and
  // ctl shutdown land here identically: stop() joins the connection
  // threads (in-flight requests finish and get recorded), THEN the
  // artifacts are written, so a dump after `csdac-ctl shutdown` is never
  // missing the final requests.
  server.stop();

  const serve::ServerCounters c = server.counters();
  std::printf("csdac_serve: served %lld requests on %lld connections "
              "(%lld errors, %lld rejected, %lld slow)\n",
              static_cast<long long>(c.requests),
              static_cast<long long>(c.connections),
              static_cast<long long>(c.errors),
              static_cast<long long>(c.rejected),
              static_cast<long long>(c.slow));
  dump_flight(o.flight_path);
  dump_metrics(o.metrics_path);
  return 0;
}

int run_batch(const Options& o) {
  if (o.request_path.empty()) die("no request file given");
  std::ifstream in(o.request_path, std::ios::binary);
  if (!in) die("cannot read " + o.request_path);
  std::stringstream buf;
  buf << in.rdbuf();

  std::vector<serve::RequestJob> parsed;
  try {
    parsed = serve::parse_request_text(buf.str());
  } catch (const serve::RequestError& e) {
    die(o.request_path + ": " + e.what());
  }

  // Fold identical questions by content key before submitting, so a
  // duplicate runs once even under --no-cache, where no tier answers it.
  // Each unique job keeps the id of its first occurrence as its label.
  std::vector<serve::RequestJob> unique;
  std::vector<RequestEntry> entries;
  entries.reserve(parsed.size());
  std::map<mathx::HashKey128, std::size_t> slot_of;
  for (auto& pj : parsed) {
    const auto [it, fresh] =
        slot_of.emplace(runtime::job_key(pj.job), unique.size());
    entries.push_back(RequestEntry{pj.id, it->second});
    if (fresh) unique.push_back(std::move(pj));
  }

  runtime::SchedulerOptions so;
  so.workers = o.threads;
  // A lone job gets the whole pool for its internal Monte-Carlo
  // parallelism; otherwise the jobs fan out one engine thread each.
  so.threads_per_job = unique.size() == 1 ? o.threads : 1;
  if (o.use_cache) so.exec.cache_dir = o.cache_dir;
  so.exec.cache_max_bytes =
      static_cast<std::uint64_t>(o.cache_max_mb * 1024.0 * 1024.0);

  obs::SpanCollector collector;
  if (!o.chrome_path.empty()) obs::Tracer::global().add_sink(&collector);

  const std::int64_t chips0 = dac::mc_chips_evaluated();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<runtime::Scheduler::Ticket> tickets;
  runtime::CacheCounters cc;
  try {
    runtime::Scheduler sched(so);
    obs::ScopedSpan batch("serve.batch");
    batch.attr("request", o.request_path)
        .attr("jobs", static_cast<std::int64_t>(entries.size()));
    for (const auto& u : unique) {
      tickets.push_back(sched.submit(u.job, 0, u.id, {}, batch.id()));
    }
    for (const auto& t : tickets) t.future.get();  // rethrows job failures
    cc = sched.executor().disk_counters();
  } catch (const std::exception& e) {
    die(e.what());
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const std::int64_t chip_evals = dac::mc_chips_evaluated() - chips0;
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();

  bench::JsonWriter w;
  w.begin_object();
  w.field("schema", "csdac-serve/2");
  w.field("request", o.request_path.c_str());
  w.field("engine_version", std::string(runtime::kEngineVersion).c_str());
  w.key("jobs").begin_array();
  for (const auto& e : entries) {
    const runtime::Scheduler::Ticket& t = tickets[e.slot];
    const runtime::ExecResult& r = *t.future.get();
    const std::string kind(
        runtime::kind_name(runtime::job_kind(unique[e.slot].job)));
    w.begin_object();
    w.field("id", e.id.c_str());
    w.field("kind", kind.c_str());
    w.field("key", t.key.hex().c_str());
    w.field("cache", o.use_cache ? (r.cache_hit() ? "hit" : "miss") : "off");
    w.field("wall_s", r.wall_seconds);
    w.field("evaluated", r.stats.evaluated);
    serve::emit_result(w, r.value);
    w.end_object();
  }
  w.end_array();
  w.key("summary").begin_object();
  w.field("requested", static_cast<std::int64_t>(entries.size()));
  w.field("unique_jobs", static_cast<std::int64_t>(unique.size()));
  w.field("cache_hits", cc.hits);
  w.field("cache_misses", cc.misses);
  w.field("cache_evictions", cc.evictions);
  w.field("chip_evals", chip_evals);
  w.field("wall_s", wall);
  w.field("threads", o.threads);
  w.end_object();
  w.key("metrics").raw(snap.to_json());
  w.end_object();

  std::ofstream out(o.out_path, std::ios::binary);
  if (!out) die("cannot write " + o.out_path);
  out << w.str() << "\n";
  out.close();

  if (!o.metrics_path.empty()) {
    std::ofstream mout(o.metrics_path, std::ios::binary);
    if (!mout) die("cannot write " + o.metrics_path);
    mout << snap.to_prometheus();
    std::printf("wrote %s\n", o.metrics_path.c_str());
  }
  if (!o.chrome_path.empty()) {
    obs::Tracer::global().remove_sink(&collector);
    if (!obs::write_chrome_trace(o.chrome_path, collector.take(),
                                 "csdac_serve")) {
      die("cannot write " + o.chrome_path);
    }
    std::printf("wrote %s\n", o.chrome_path.c_str());
  }

  std::printf(
      "csdac_serve: %zu requests -> %zu unique jobs, %lld cache hits, "
      "%lld misses, %lld chips evaluated, %.3f s\n",
      entries.size(), unique.size(), static_cast<long long>(cc.hits),
      static_cast<long long>(cc.misses), static_cast<long long>(chip_evals),
      wall);
  std::printf("wrote %s\n", o.out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  if (o.listen) {
    try {
      return run_server(o);
    } catch (const std::exception& e) {
      die(e.what());
    }
  }
  return run_batch(o);
}
