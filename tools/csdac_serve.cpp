// Design-service front end, in two modes answering every request through
// one function, serve::answer (src/serve/answer.*):
//
// Batch (default): reads a JSON request file describing many design
// questions (yield estimates, calibration studies, design-space sweeps,
// spectrum evaluations, architecture and SPICE studies), answers it on a
// local runtime::Scheduler (--threads workers) over the persistent
// content-addressed cache, and writes the "csdac-serve/4" reply the
// server would send for the same payload with "metrics": true: per-job
// results, tiers and stages, a summary, and a metrics-registry snapshot.
// Identical jobs fold by content key and run once, even under
// --no-cache. Exits 1 when the request is refused (the reply is then its
// error frame) or any job failed. A warm-cache run answers every question
// without a single Monte-Carlo chip evaluation — the CI batch smoke jobs
// assert exactly that from the reply and the Prometheus dump.
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
// in Perfetto or chrome://tracing for a flamegraph of serve.request >
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
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "runtime/scheduler.hpp"
#include "serve/answer.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"

using namespace csdac;

namespace {

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
  const std::string text = buf.str();

  // A request with one unique key gets the whole pool for its internal
  // Monte-Carlo parallelism; otherwise the jobs fan out one engine thread
  // each. A request the parser refuses is answered (refused) below.
  std::set<mathx::HashKey128> keys;
  try {
    for (const auto& j : serve::parse_request_text(text)) {
      keys.insert(runtime::job_key(j.job));
    }
  } catch (const serve::RequestError&) {
  }
  runtime::SchedulerOptions so;
  so.workers = o.threads;
  so.threads_per_job = keys.size() == 1 ? o.threads : 1;
  if (o.use_cache) so.exec.cache_dir = o.cache_dir;
  so.exec.cache_max_bytes =
      static_cast<std::uint64_t>(o.cache_max_mb * 1024.0 * 1024.0);

  obs::SpanCollector collector;
  if (!o.chrome_path.empty()) obs::Tracer::global().add_sink(&collector);
  serve::Answer a;
  try {
    runtime::Scheduler sched(so);
    a = serve::answer(text, sched, 0, /*metrics=*/true);
  } catch (const std::exception& e) {
    die(e.what());
  }

  std::ofstream out(o.out_path, std::ios::binary);
  if (!out) die("cannot write " + o.out_path);
  out << a.reply << "\n";
  out.close();
  std::printf("wrote %s\n", o.out_path.c_str());
  dump_metrics(o.metrics_path);
  if (!o.chrome_path.empty()) {
    obs::Tracer::global().remove_sink(&collector);
    if (!obs::write_chrome_trace(o.chrome_path, collector.take(),
                                 "csdac_serve")) {
      die("cannot write " + o.chrome_path);
    }
    std::printf("wrote %s\n", o.chrome_path.c_str());
  }

  if (a.refused) die(o.request_path + ": " + a.reply);
  if (a.failed > 0) {
    die(std::to_string(a.failed) + " job(s) failed, see " + o.out_path);
  }
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
