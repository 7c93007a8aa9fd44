// Design-server benchmark runner: shared declarations.
//
// The runner starts the shipped csdac_serve --listen binary as a separate
// process, replays generated mixed-kind traffic against it from closed-loop
// client threads (serve::Client), checks every reply against in-process
// runtime::execute_job references, and prints the end-to-end metrics. With
// --trace 1 it instead reports per-layer numbers: a shorter replay for the
// server's registry deltas plus an in-process replay of the same generated
// inputs through each layer's public functions, timed by the benchmark's
// own spans (spans.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <sys/types.h>
#include <utility>
#include <vector>

#include "runtime/job.hpp"
#include "runtime/json.hpp"

namespace perfbench {

// --- deterministic generator ---------------------------------------------

/// splitmix64 stream. The benchmark's inputs derive only from --seed through
/// this generator, so they do not move when the program's own RNG changes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Mixes two words into one seed (splitmix finalizer).
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

// --- workloads -----------------------------------------------------------

/// Job templates, read-only from tools/*_request.json.
struct Templates {
  /// Jobs by kind name, in file-name order, then position in the file.
  std::map<std::string, std::vector<csdac::runtime::JsonValue>> kinds;
  /// Each request file's jobs as (kind, index into kinds[kind]).
  std::vector<std::vector<std::pair<std::string, std::size_t>>> requests;
};
Templates load_templates(const std::string& tools_dir);

/// Per-client position in its deterministic request sequence.
struct Cursor {
  explicit Cursor(std::uint64_t seed) : rng(seed) {}
  Rng rng;
  std::int64_t n = 0;  ///< requests generated so far
};

/// One generated traffic mix. Jobs are named by id: ids below pool.size()
/// are the static key set (pre-filled for warm_hit, referenced before the
/// timed window); larger ids are fresh keys built on demand.
struct Workload {
  std::string name;
  int clients = 4;
  bool prefill = false;     ///< set-up sends every pool job once
  /// Every job of the timed window must be a hot-tier hit: no chip
  /// evaluations and no hot-tier misses.
  bool all_hits = false;
  std::vector<std::string> pool;  ///< job JSON by id
  /// Appends the job ids of the client's next request.
  std::function<void(int client, Cursor&, std::vector<std::int64_t>&)> next;
  /// Job JSON of a fresh id (>= pool.size()).
  std::function<std::string(std::int64_t id)> fresh;
  /// Fresh ids whose results are kept and checked after the window: a
  /// fixed deterministic sample.
  std::function<bool(std::int64_t id)> sampled;

  std::string job_json(std::int64_t id) const {
    return id < static_cast<std::int64_t>(pool.size())
               ? pool[static_cast<std::size_t>(id)]
               : fresh(id);
  }
};

/// Names accepted by --workload.
const std::vector<std::string>& workload_names();
/// Builds the named workload from the templates and the workload seed.
/// Throws std::runtime_error on an unknown name or a missing template.
Workload make_workload(const std::string& name, const Templates& t,
                       std::uint64_t seed);

/// Request text for a list of job ids, tagged with `trace_id`.
std::string request_text(const Workload& w,
                         const std::vector<std::int64_t>& ids,
                         const std::string& trace_id);

// --- references ----------------------------------------------------------

/// In-process reference of one job: runtime::execute_job on the job parsed
/// from the exact JSON the server receives, and the bytes serve::emit_result
/// writes for it (the object after "result":).
struct Reference {
  csdac::runtime::Job job;
  csdac::runtime::JobValue value;
  std::string result;
};

/// Computes references for `jsons` on `threads` threads (each job runs at
/// one engine thread; results are thread-count invariant by contract).
std::vector<Reference> compute_references(const std::vector<std::string>& jsons,
                                          int threads);

// --- the server process --------------------------------------------------

/// Registry counters/gauges from the server's Prometheus exposition
/// (unlabeled series only), by exposition name.
using Registry = std::map<std::string, double>;

class ServerProcess {
 public:
  /// Spawns `binary --listen` with its cache and port file under `dir`
  /// (default hot-tier budget).
  ServerProcess(const std::string& binary, const std::string& dir,
                int workers);
  /// Kills the server if it is still running and waits for it.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Blocks until the server answers a ping (throws after `timeout_s`).
  void wait_ready(double timeout_s);
  int port() const { return port_; }
  Registry metrics();
  /// ctl shutdown, then waits for the process to exit.
  void shutdown();

  /// utime + stime of the server process [s], from /proc/<pid>/stat.
  double cpu_seconds() const;
  /// Peak resident set (VmHWM) of the server [MiB].
  double peak_rss_mb() const;

 private:
  std::string control(const std::string& cmd);
  void reap(double timeout_s);

  pid_t pid_ = -1;
  int port_ = 0;
  std::string port_file_;
};

/// Registry value or 0 when the series is absent.
double reg(const Registry& r, const std::string& name);

// --- replay --------------------------------------------------------------

struct ReplayStats {
  std::vector<double> latency_us;  ///< one per request answered correctly
  std::int64_t attempted = 0;      ///< requests sent
  std::int64_t ok = 0;             ///< requests answered correctly
  std::int64_t jobs = 0;           ///< jobs in correctly answered requests
  std::int64_t failed = 0;         ///< failed, refused or wrong requests
  double wall_s = 0.0;
  std::vector<std::string> errors;  ///< first few violation messages
  /// Kept results of fresh ids (Workload::sampled), agreed across clients.
  std::map<std::int64_t, std::string> fresh_results;
  // Traced-run extras, taken from the reply "stages" objects.
  std::vector<double> stage_sum_us;  ///< per reply, sum of job total_us
  std::vector<double> store_us;      ///< per job answered by a compute
  double reply_bytes = 0.0;          ///< summed reply payload bytes
};

/// Each client's request-sequence position, seeded from the workload seed.
std::vector<Cursor> make_cursors(const Workload& w, std::uint64_t seed);

/// Runs every client's generated requests closed-loop for `seconds`
/// (each client waits for its reply before sending the next), continuing
/// from and advancing `cursors`. Replies are checked between requests,
/// after the latency sample is taken: trace id echo, no error, and pool
/// results byte-identical to `expected`.
ReplayStats replay(const Workload& w, std::vector<Cursor>& cursors, int port,
                   const std::vector<std::string>& expected, double seconds);

/// Adds `from` into `into` (wall_s excepted); a fresh id answered with two
/// different results counts one failure.
void merge(ReplayStats& into, ReplayStats&& from);

/// Sends every pool job once, spread over the workload's clients, and
/// checks each reply like replay() does. Used as the set-up pre-fill.
ReplayStats prefill(const Workload& w, int port,
                    const std::vector<std::string>& expected);

// --- spans ---------------------------------------------------------------

/// In-memory span recorder of the traced run's in-process probes, which
/// run on one thread: spans nest on one stack, and every span is kept
/// until write_chrome_trace() at the end.
class Spans {
 public:
  struct Record {
    const char* name = "";  ///< a string literal
    std::int64_t id = 0;
    std::int64_t parent = 0;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  class Scope {
   public:
    Scope(Spans& s, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* s_;
    std::size_t index_ = 0;
  };

  /// When off, Scope records nothing (the untraced half of the overhead
  /// measurement).
  bool enabled = true;

  /// Per-span self time (duration minus the time covered by its children)
  /// of every span named `name`, microseconds.
  std::vector<double> self_us(std::string_view name) const;
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Record> records_;
  std::vector<std::size_t> stack_;
};

// --- per-layer traced replay ---------------------------------------------

using Metrics = std::map<std::string, double>;

struct LayerInputs {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  const Templates* templates = nullptr;
  std::string work_dir;
  int nproc = 1;
};

/// Runs every in-process layer probe and adds its per-layer metrics.
void layer_probes(const LayerInputs& in, Spans& spans, Metrics& out);

// --- environment ---------------------------------------------------------

struct Env {
  int nproc = 1;
  std::string simd;
  std::string build_type;
  std::string git_sha;
  std::string source_digest;
  std::string host_cpu;
};

/// Refuses unoptimized or sanitized builds: returns an error message, or
/// empty when the build may report.
std::string build_refusal();
Env capture_env(const std::string& git_sha, const std::string& digest);

// --- statistics ----------------------------------------------------------

/// Linear-interpolated quantile q in [0, 1] of `v` (sorted in place).
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

}  // namespace perfbench
