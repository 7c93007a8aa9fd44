// Benchmark runner entry point (run through perfbench/run.py, which builds
// it and the server from the checkout's sources):
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --server BIN --root DIR --work DIR --out DIR
//                    [--git-sha SHA] [--source-digest HEX]
//
// --trace 0 measures the end-to-end metrics; --trace 1 the per-layer ones.
// The last stdout line is the result object; the full record (environment
// stamp, p99, sample counts, registry work counts) is written under --out.
// Exit status: 0 correct, 1 a correctness-gate violation, 2 an error,
// 3 a build that may not report, 4 the internal time limit.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "bench_json.hpp"
#include "perfbench.hpp"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/// A run must end within 180 s; past this the runner gives up (the server
/// dies with it through its parent-death signal).
constexpr double kTimeLimitS = 170.0;

struct Args {
  std::string workload, server, root, work, out, git_sha = "unknown",
                                                 digest = "unknown";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "NAME --seed N --seconds S --trace 0|1 --server BIN --root DIR "
               "--work DIR --out DIR [--git-sha SHA] [--source-digest HEX]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::atoi(v) != 0;
    else if (k == "--server") a.server = v;
    else if (k == "--root") a.root = v;
    else if (k == "--work") a.work = v;
    else if (k == "--out") a.out = v;
    else if (k == "--git-sha") a.git_sha = v;
    else if (k == "--source-digest") a.digest = v;
    else usage(("unknown argument " + k).c_str());
  }
  if (a.workload.empty() || a.server.empty() || a.root.empty() ||
      a.work.empty() || a.out.empty() || !(a.seconds > 0.0)) {
    usage("missing argument");
  }
  return a;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Ends the process if the run overstays kTimeLimitS.
class Watchdog {
 public:
  Watchdog()
      : thread_([this] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(kTimeLimitS),
                            [this] { return done_; })) {
            std::fprintf(stderr, "perfbench_runner: time limit exceeded\n");
            std::_Exit(4);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json declares, in its order.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"requests_per_s", "1/s"},
    {"jobs_per_s", "1/s"},
    {"server_cpu_ms_per_job", "ms"},
    {"server_peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"serve.client_p50_us", "us"},
    {"serve.parse_us", "us"},
    {"serve.encode_us", "us"},
    {"serve.frame_us", "us"},
    {"serve.reply_bytes", "bytes"},
    {"serve.stage_sum_us", "us"},
    {"serve.residual_us", "us"},
    {"runtime.key_us", "us"},
    {"runtime.hot_hit_us", "us"},
    {"runtime.queue_us", "us"},
    {"runtime.disk_hit_us", "us"},
    {"runtime.store_us", "us"},
    {"runtime.codec_us", "us"},
    {"mathx.call_overhead_us", "us"},
    {"mathx.call_overhead_1t_us", "us"},
    {"mathx.utilization", "ratio"},
    {"mathx.scaling_eff", "ratio"},
    {"dac.inl_chips_per_s", "1/s"},
    {"dac.cal_chips_per_s", "1/s"},
    {"dac.is_chips_per_s", "1/s"},
    {"dac.strat_chips_per_s", "1/s"},
    {"arch.dyn_chip_ms", "ms"},
    {"arch.compare_ms", "ms"},
    {"spice.corner_ms", "ms"},
    {"spice.newton_iters_per_corner", "count"},
    {"spice.refactor_per_corner", "count"},
    {"obs.trace_overhead_frac", "ratio"},
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Steal and total ticks of all CPUs from /proc/stat. The share of CPU
/// time the hypervisor stole during a run goes into the record, so a
/// noisy host shows next to the numbers it disturbed.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;

  static CpuTicks now() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    CpuTicks t;
    for (int i = 0; i < 8; ++i) {
      double x = 0.0;
      in >> x;
      t.total += x;
      if (i == 7) t.steal = x;
    }
    return t;
  }

  /// Share of the ticks since `t0` that the hypervisor stole.
  double steal_share_since(const CpuTicks& t0) const {
    return ratio(steal - t0.steal, total - t0.total);
  }
};

/// What one server lifetime measured.
struct Lifetime {
  double setup_s = 0.0;
  double steal = 0.0;  ///< host steal share during the timed window
  std::vector<double> latency_us;
  double ok = 0.0;    ///< requests answered correctly
  double jobs = 0.0;  ///< jobs in those requests
  double wall_s = 0.0;
  double cpu_ms = 0.0;  ///< server utime + stime over the window
  double peak_rss_mb = 0.0;
};

template <std::size_t N>
void emit_metrics(csdac::bench::JsonWriter& w, const MetricDef (&defs)[N],
                  const Metrics& m) {
  w.begin_object();
  for (const MetricDef& d : defs) {
    const auto it = m.find(d.name);
    if (it == m.end()) {
      throw std::logic_error(std::string("metric not measured: ") + d.name);
    }
    w.key(d.name).begin_object();
    w.field("value", it->second);
    w.field("unit", d.unit);
    w.end_object();
  }
  w.end_object();
}

int run(const Args& a) {
  const Clock::time_point run_start = Clock::now();
  const Env env = capture_env(a.git_sha, a.digest);
  const Templates templates = load_templates(a.root + "/tools");
  Workload w = make_workload(a.workload, templates, a.seed);
  // Never more client threads or connections than the machine has cores.
  w.clients = std::min(w.clients, env.nproc);

  const std::string work = a.work + "/" + a.workload + "-" +
                           std::to_string(::getpid());
  fs::remove_all(work);
  fs::create_directories(work);
  fs::create_directories(a.out);

  // Pool references before any server exists (outside every timed span).
  const std::vector<Reference> pool_refs =
      compute_references(w.pool, env.nproc);
  std::vector<std::string> expected;
  for (const Reference& r : pool_refs) expected.push_back(r.result);

  // A run is several server lifetimes, each set up anew (launch
  // to first ping answer, plus the pre-fill pass) on a fresh cache
  // directory and then measured for its share of the window. New
  // processes, connections and client threads each time spread the run
  // over thread placements instead of betting it on one. Client sequences
  // continue across lifetimes. setup_s is the median and peak RSS the
  // maximum over the lifetimes (a lifetime's peak depends on which
  // workers' malloc arenas its heavy jobs landed in). Per-lifetime values
  // go into the record.
  const int lifetimes = a.trace ? 1 : 5;
  const double window_s =
      a.trace ? std::max(1.0, a.seconds / 2.0) : a.seconds / lifetimes;
  std::vector<Cursor> cursors = make_cursors(w, a.seed);
  std::vector<Lifetime> measured;
  ReplayStats st;
  Registry work_done;  // registry deltas summed over the windows
  const CpuTicks ticks0 = CpuTicks::now();
  for (int i = 0; i < lifetimes; ++i) {
    const std::string dir = work + "/server-" + std::to_string(i);
    fs::create_directories(dir);
    Lifetime life;
    // The previous lifetime's cache files are written back first, so the
    // write-back does not compete with this launch.
    ::sync();
    const Clock::time_point t0 = Clock::now();
    ServerProcess server(a.server, dir, env.nproc);
    server.wait_ready(30.0);
    if (w.prefill) {
      ReplayStats fill = prefill(w, server.port(), expected);
      // Pre-fill replies are checked like any other; their compute stages
      // feed runtime.store_us, their latencies stay out of the window.
      fill.latency_us.clear();
      fill.stage_sum_us.clear();
      fill.attempted = fill.ok = fill.jobs = 0;
      fill.reply_bytes = 0.0;
      merge(st, std::move(fill));
    }
    life.setup_s = since(t0);

    const Registry reg0 = server.metrics();
    const double cpu0 = server.cpu_seconds();
    const CpuTicks w0 = CpuTicks::now();
    ReplayStats win = replay(w, cursors, server.port(), expected, window_s);
    life.steal = CpuTicks::now().steal_share_since(w0);
    life.cpu_ms = (server.cpu_seconds() - cpu0) * 1e3;
    const Registry reg1 = server.metrics();
    life.peak_rss_mb = server.peak_rss_mb();
    server.shutdown();
    for (const auto& [name, v] : reg1) work_done[name] += v - reg(reg0, name);
    life.latency_us = win.latency_us;
    life.ok = static_cast<double>(win.ok);
    life.jobs = static_cast<double>(win.jobs);
    life.wall_s = win.wall_s;
    measured.push_back(std::move(life));
    st.wall_s += win.wall_s;
    merge(st, std::move(win));
  }

  // The timed metrics pool only the lifetimes the hypervisor disturbed
  // least. On a shared 4-vCPU VM, CPU steal came in bursts of 10-30 %
  // lasting seconds, and a lifetime at 15 % steal ran warm_hit at half
  // the throughput of one at 2 %; with the bursts pooled in, ten runs
  // spread by 45 %. Steal is the host's doing, not the program's, so it
  // chooses the lifetimes and never the measured values.
  constexpr double kStealMargin = 0.02;
  double least_steal = 1.0;
  for (const Lifetime& l : measured) {
    least_steal = std::min(least_steal, l.steal);
  }
  Lifetime pooled;
  int pooled_count = 0;
  for (const Lifetime& l : measured) {
    if (l.steal > least_steal + kStealMargin) continue;
    ++pooled_count;
    pooled.latency_us.insert(pooled.latency_us.end(), l.latency_us.begin(),
                             l.latency_us.end());
    pooled.ok += l.ok;
    pooled.jobs += l.jobs;
    pooled.wall_s += l.wall_s;
    pooled.cpu_ms += l.cpu_ms;
  }

  std::int64_t failed = st.failed;
  std::vector<std::string> errors = st.errors;

  // Registry work counts of the lifetimes (never reply summaries).
  const double chips = reg(work_done, "csdac_mc_chips_evaluated_total");
  const double hot_hits = reg(work_done, "csdac_cache_hot_hits_total");
  const double hot_misses = reg(work_done, "csdac_cache_hot_misses_total");
  if (w.all_hits) {
    // Chips catch a recomputed MC kind; hot-tier misses catch every kind,
    // including those that count no chips (sweeps, spectrum, bridge).
    if (chips != 0.0 || hot_misses != 0.0) {
      ++failed;
      errors.push_back(
          std::to_string(static_cast<long long>(chips)) + " chips and " +
          std::to_string(static_cast<long long>(hot_misses)) +
          " hot-tier misses in a window that must be all hits");
    }
  }
  // Kept fresh results against references computed after the lifetimes.
  {
    std::vector<std::string> jsons;
    std::vector<std::int64_t> ids;
    for (const auto& [id, result] : st.fresh_results) {
      ids.push_back(id);
      jsons.push_back(w.job_json(id));
    }
    const std::vector<Reference> refs = compute_references(jsons, env.nproc);
    for (std::size_t i = 0; i < refs.size(); ++i) {
      if (refs[i].result != st.fresh_results.at(ids[i])) {
        ++failed;
        if (errors.size() < 16) {
          errors.push_back("job " + std::to_string(ids[i]) +
                           " result differs from the reference");
        }
      }
    }
  }

  Metrics metrics;
  Metrics info;
  std::vector<double> lat = pooled.latency_us;
  const double p50 = quantile(lat, 0.50);
  info["latency_p99_ms"] = quantile(lat, 0.99) * 1e-3;
  info["latency_samples"] = static_cast<double>(lat.size());
  info["lifetimes_pooled"] = pooled_count;
  info["chips_per_s"] = chips / st.wall_s;
  info["failed_frac"] =
      ratio(static_cast<double>(failed), static_cast<double>(st.attempted));
  info["window_s"] = st.wall_s;
  info["lifetimes"] = lifetimes;
  info["sched_completed"] = reg(work_done, "csdac_sched_completed_total");
  // Cache and scheduler ratios of the windows. They are 0 by construction
  // on some workloads (no hot hit when every key is fresh, no dedup with
  // one client), so they are recorded here, not reported as metrics.
  const double disk_hits = reg(work_done, "csdac_cache_hits_total");
  info["hot_hit_ratio"] = ratio(hot_hits, hot_hits + hot_misses);
  info["disk_hit_ratio"] =
      ratio(disk_hits, disk_hits + reg(work_done, "csdac_cache_misses_total"));
  info["hot_evictions"] = reg(work_done, "csdac_cache_hot_evictions_total");
  info["dedup_ratio"] = ratio(reg(work_done, "csdac_sched_dedup_inflight_total"),
                              reg(work_done, "csdac_sched_submitted_total"));
  info["simd_chips_scalar_tail"] =
      reg(work_done, "csdac_simd_chips_scalar_tail_total");
  info["host_steal_frac"] = CpuTicks::now().steal_share_since(ticks0);

  if (!a.trace) {
    std::vector<double> setups;
    double rss = 0.0;
    for (const Lifetime& l : measured) {
      setups.push_back(l.setup_s);
      rss = std::max(rss, l.peak_rss_mb);
    }
    metrics["setup_s"] = median(setups);
    metrics["latency_p50_ms"] = p50 * 1e-3;
    metrics["latency_p90_ms"] = quantile(lat, 0.90) * 1e-3;
    metrics["requests_per_s"] = pooled.ok / pooled.wall_s;
    metrics["jobs_per_s"] = pooled.jobs / pooled.wall_s;
    metrics["server_cpu_ms_per_job"] = ratio(pooled.cpu_ms, pooled.jobs);
    metrics["server_peak_rss_mb"] = rss;
  } else {
    metrics["serve.client_p50_us"] = p50;
    metrics["serve.stage_sum_us"] = median(st.stage_sum_us);
    metrics["serve.residual_us"] = p50 - metrics["serve.stage_sum_us"];
    metrics["serve.reply_bytes"] =
        ratio(st.reply_bytes, static_cast<double>(st.ok));
    metrics["runtime.store_us"] = median(st.store_us);

    Spans spans;
    LayerInputs in;
    in.workload = &w;
    in.seed = a.seed;
    in.templates = &templates;
    in.work_dir = work;
    in.nproc = env.nproc;
    layer_probes(in, spans, metrics);
    const std::string trace_path = a.out + "/trace-" + a.workload + "-seed" +
                                   std::to_string(a.seed) + ".json";
    if (!spans.write_chrome_trace(trace_path)) {
      throw std::runtime_error("cannot write " + trace_path);
    }
    std::printf("spans: %s\n", trace_path.c_str());
  }
  fs::remove_all(work);

  const bool correct = failed == 0;
  csdac::bench::JsonWriter line;
  line.begin_object();
  line.field("correct", correct);
  line.field("attempted", st.attempted);
  line.field("failed", failed);
  line.key("metrics");
  if (a.trace) emit_metrics(line, kPerLayer, metrics);
  else emit_metrics(line, kEndToEnd, metrics);
  line.end_object();

  // Full record, with the environment stamp.
  csdac::bench::JsonWriter rec;
  rec.begin_object();
  rec.field("schema", "csdac-perfbench/1");
  rec.field("workload", a.workload);
  rec.field("seconds", a.seconds);
  rec.field("trace", a.trace);
  rec.key("env").begin_object();
  rec.field("nproc", env.nproc);
  rec.field("simd_backend", env.simd);
  rec.field("build_type", env.build_type);
  rec.field("git_sha", env.git_sha);
  rec.field("source_digest", env.source_digest);
  rec.field("cpu", env.host_cpu);
  rec.field("clients", w.clients);
  rec.field("workload_seed", static_cast<std::int64_t>(a.seed));
  rec.end_object();
  rec.key("result").raw(line.str());
  rec.key("info").begin_object();
  for (const auto& [k, v] : info) rec.field(k, v);
  rec.key("per_lifetime").begin_array();
  for (Lifetime& l : measured) {
    rec.begin_object();
    rec.field("host_steal_frac", l.steal);
    rec.field("pooled", l.steal <= least_steal + kStealMargin);
    rec.field("setup_s", l.setup_s);
    rec.field("latency_p50_ms", quantile(l.latency_us, 0.50) * 1e-3);
    rec.field("latency_p90_ms", quantile(l.latency_us, 0.90) * 1e-3);
    rec.field("requests_per_s", l.ok / l.wall_s);
    rec.field("server_cpu_ms_per_job", ratio(l.cpu_ms, l.jobs));
    rec.field("server_peak_rss_mb", l.peak_rss_mb);
    rec.end_object();
  }
  rec.end_array();
  rec.key("errors").begin_array();
  for (const auto& e : errors) rec.value(e);
  rec.end_array();
  rec.end_object();
  rec.field("runner_wall_s", since(run_start));
  rec.end_object();
  const std::string rec_path = a.out + "/result-" + a.workload + "-seed" +
                               std::to_string(a.seed) + "-trace" +
                               (a.trace ? "1" : "0") + ".json";
  std::ofstream(rec_path, std::ios::binary) << rec.str() << "\n";

  std::printf("perfbench %s seed=%llu clients=%d nproc=%d simd=%s build=%s "
              "git=%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              w.clients, env.nproc, env.simd.c_str(), env.build_type.c_str(),
              env.git_sha.c_str());
  const auto show = [&](const auto& defs) {
    for (const MetricDef& d : defs) {
      std::printf("  %-32s %14.6g %s\n", d.name, metrics.at(d.name), d.unit);
    }
  };
  if (a.trace) {
    show(kPerLayer);
  } else {
    show(kEndToEnd);
    std::printf("  %-32s %14.6g ms  (not gated)\n", "latency_p99_ms",
                info["latency_p99_ms"]);
    std::printf("  %-32s %14.6g 1/s (registry mc.chips_evaluated)\n",
                "chips_per_s", info["chips_per_s"]);
    std::printf("  %-32s %14.6g ratio\n", "failed_frac", info["failed_frac"]);
    std::printf("  latency samples %lld from %d of %d server lifetimes\n",
                static_cast<long long>(lat.size()), pooled_count, lifetimes);
  }
  for (const auto& e : errors) std::printf("  VIOLATION %s\n", e.c_str());
  std::printf("record: %s\n", rec_path.c_str());
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench_runner: refusing to report: %s\n",
                 refusal.c_str());
    return 3;
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage(("unknown workload " + a.workload).c_str());
  }
  Watchdog watchdog;
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 2;
  }
}
