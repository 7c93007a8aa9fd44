// Per-layer probes of the traced run. Each probe calls one layer's public
// function on the workload's own generated inputs (or, for the compute
// layers, on the cold_mc / solo_heavy jobs built from the same templates
// and seed), with a benchmark span around each call. Metric values are
// medians of span self times unless noted.
#include <chrono>
#include <stdexcept>
#include <sys/socket.h>
#include <thread>
#include <type_traits>
#include <unistd.h>

#include "bench_json.hpp"
#include "dac/calibration.hpp"
#include "dac/rare_event.hpp"
#include "dac/static_analysis.hpp"
#include "mathx/parallel.hpp"
#include "perfbench.hpp"
#include "runtime/executor.hpp"
#include "runtime/scheduler.hpp"
#include "serve/framing.hpp"
#include "serve/request.hpp"
#include "serve/response.hpp"

namespace perfbench {

namespace rt = csdac::runtime;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A request of the workload's own sequence, with the job values it needs.
struct SampleRequest {
  std::string text;
  std::vector<std::size_t> refs;  ///< indices into the reference table
};

/// The reply the server assembles for a request: envelope, per-job
/// fields, emit_result, stages and summary (serve/server.cpp).
std::string encode_reply(const std::vector<csdac::serve::RequestJob>& jobs,
                         const std::vector<const Reference*>& values,
                         const std::vector<csdac::mathx::HashKey128>& keys) {
  csdac::bench::JsonWriter w;
  w.begin_object();
  w.field("schema", csdac::serve::kResponseSchema);
  w.field("trace_id", "pb-trace");
  w.key("jobs").begin_array();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    w.begin_object();
    w.field("id", jobs[i].id);
    w.field("kind", rt::kind_name(rt::job_kind(jobs[i].job)));
    w.field("key", keys[i].hex());
    w.field("cache", "hot");
    w.field("deduped", false);
    w.field("wall_s", 0.0);
    w.field("evaluated", std::int64_t{0});
    csdac::serve::emit_result(w, values[i]->value);
    w.key("stages").begin_object();
    for (const char* s : {"admission_us", "queue_us", "hot_us", "disk_us",
                          "compute_us", "store_us", "serialize_us",
                          "total_us"}) {
      w.field(s, std::int64_t{0});
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("summary").begin_object();
  w.field("requested", static_cast<std::int64_t>(jobs.size()));
  w.field("deduped", std::int64_t{0});
  w.field("failed", std::int64_t{0});
  w.field("chip_evals", std::int64_t{0});
  w.field("wall_s", 0.0);
  w.end_object();
  w.end_object();
  return w.str();
}

std::vector<unsigned char> encoded(const rt::JobValue& v) {
  csdac::mathx::ByteWriter w;
  rt::encode_value(v, w);
  return w.data();
}

/// The serve + runtime probes: every sample request goes through parse,
/// key, a direct hot-tier hit, a scheduler hot hit, reply encoding and
/// framing over a socketpair, in rounds that alternate spans off and on
/// until `budget_s` has passed. Returns the recorder's own overhead: the
/// summed per-request median time with spans on over that with spans off,
/// minus one (medians, because the scheduler hop's wake-ups are noisy).
double pipeline_probe(const std::vector<SampleRequest>& sample,
                      const std::vector<Reference>& refs, int nproc,
                      double budget_s, Spans& spans) {
  rt::ExecutorOptions eo;
  eo.hot_bytes = 256ull << 20;
  auto exec = std::make_shared<rt::JobExecutor>(eo);
  for (const Reference& r : refs) {
    exec->hot()->put(rt::job_key(r.job), encoded(r.value));
  }
  rt::SchedulerOptions so;
  so.workers = nproc;
  so.threads_per_job = 1;
  rt::Scheduler sched(so, exec);

  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  const int sndbuf = 4 << 20;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  ::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &sndbuf, sizeof(sndbuf));
  int buffered = 0;
  socklen_t len = sizeof(buffered);
  ::getsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &buffered, &len);

  // Per request, its wall times with spans off [0] and on [1].
  std::vector<std::vector<double>> times[2];
  times[0].resize(sample.size());
  times[1].resize(sample.size());
  const auto one_round = [&](bool on) {
    std::string frame;
    for (std::size_t r = 0; r < sample.size(); ++r) {
      const SampleRequest& req = sample[r];
      const Clock::time_point t0 = Clock::now();
      Spans::Scope request(spans, "replay.request");
      std::vector<csdac::serve::RequestJob> jobs;
      {
        Spans::Scope s(spans, "serve.parse");
        jobs = csdac::serve::parse_request_text(req.text);
      }
      std::vector<csdac::mathx::HashKey128> keys(jobs.size());
      std::vector<const Reference*> values(jobs.size());
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        {
          Spans::Scope s(spans, "runtime.key");
          keys[i] = rt::job_key(jobs[i].job);
        }
        rt::ExecResult hit;
        {
          Spans::Scope s(spans, "runtime.hot_hit");
          hit = exec->run(jobs[i].job, keys[i], 1);
        }
        {
          Spans::Scope s(spans, "runtime.sched_hit");
          sched.submit(jobs[i].job, 1).future.get();
        }
        if (hit.tier != rt::ResultTier::kHot) {
          throw std::runtime_error("layer probe: expected a hot-tier hit");
        }
        values[i] = &refs[req.refs[i]];
      }
      std::string reply;
      {
        Spans::Scope s(spans, "serve.encode");
        reply = encode_reply(jobs, values, keys);
      }
      // One frame must fit the socket buffer: the write completes before
      // the same thread reads it back.
      if (reply.size() + 8 > static_cast<std::size_t>(buffered) / 2) {
        throw std::runtime_error("layer probe: reply exceeds socket buffer");
      }
      {
        Spans::Scope s(spans, "serve.frame");
        if (!csdac::serve::write_frame(fds[0], reply) ||
            csdac::serve::read_frame(fds[1], frame) !=
                csdac::serve::FrameStatus::kOk) {
          throw std::runtime_error("layer probe: framing failed");
        }
      }
      times[on ? 1 : 0][r].push_back(seconds_since(t0));
    }
  };

  const Clock::time_point start = Clock::now();
  for (int round = 0;
       round < 400 && (round < 4 || seconds_since(start) < budget_s); ++round) {
    const bool on = round % 2 == 1;
    spans.enabled = on;
    one_round(on);
  }
  spans.enabled = true;
  ::close(fds[0]);
  ::close(fds[1]);
  double t_off = 0.0, t_on = 0.0;
  for (std::size_t r = 0; r < sample.size(); ++r) {
    t_off += median(times[0][r]);
    t_on += median(times[1][r]);
  }
  return t_on / t_off - 1.0;
}

/// Disk-tier hits (hot tier off, warm directory) and the result codec.
void runtime_probes(const std::vector<Reference>& refs,
                    const std::string& dir, Spans& spans) {
  rt::ExecutorOptions eo;
  eo.cache_dir = dir;
  rt::JobExecutor exec(eo);
  for (const Reference& r : refs) {
    exec.disk()->put(rt::job_key(r.job), encoded(r.value));
  }
  for (int round = 0; round < 8; ++round) {
    for (const Reference& r : refs) {
      const auto key = rt::job_key(r.job);
      Spans::Scope s(spans, "runtime.disk_hit");
      if (exec.run(r.job, key, 1).tier != rt::ResultTier::kDisk) {
        throw std::runtime_error("layer probe: expected a disk-tier hit");
      }
    }
  }
  for (int round = 0; round < 32; ++round) {
    for (const Reference& r : refs) {
      Spans::Scope s(spans, "runtime.codec");
      csdac::mathx::ByteWriter w;
      rt::encode_value(r.value, w);
      csdac::mathx::ByteReader rd(w.data());
      rt::JobValue back;
      if (!rt::decode_value(rt::job_kind(r.job), rd, back)) {
        throw std::runtime_error("layer probe: codec round trip failed");
      }
    }
  }
}

rt::Job job_of(const std::string& json) {
  rt::JsonValue v;
  std::string err;
  if (!rt::parse_json(json, v, &err)) throw std::runtime_error(err);
  return csdac::serve::parse_job(v);
}

template <typename T>
const T& as(const rt::Job& job) {
  if (!std::holds_alternative<T>(job)) {
    throw std::runtime_error("layer probe: unexpected job kind");
  }
  return std::get<T>(job);
}

/// The compute layers (mathx engine, dac estimators, arch, spice), on the
/// cold_mc and solo_heavy jobs of this seed at one engine thread.
void compute_probes(const LayerInputs& in, Spans& spans, Metrics& out) {
  const Workload cold = make_workload("cold_mc", *in.templates, in.seed);
  const Workload solo = make_workload("solo_heavy", *in.templates, in.seed);
  std::map<rt::JobKind, rt::Job> jobs;
  for (std::int64_t id = 0; id < 5; ++id) {
    const rt::Job j = job_of(cold.fresh(id));
    jobs.emplace(rt::job_kind(j), j);
  }
  for (std::int64_t id = 0; id < 3; ++id) {
    const rt::Job j = job_of(solo.fresh(id));
    jobs.emplace(rt::job_kind(j), j);  // keeps cold_mc's mid-size inl_yield
  }
  const auto& inl = as<rt::InlYieldJob>(jobs.at(rt::JobKind::kInlYield));
  const auto& cal = as<rt::CalYieldJob>(jobs.at(rt::JobKind::kCalYield));
  const auto& is = as<rt::InlYieldIsJob>(jobs.at(rt::JobKind::kInlYieldIs));
  const auto& strat =
      as<rt::InlYieldStratJob>(jobs.at(rt::JobKind::kInlYieldStrat));

  // Engine call overhead: an empty body, at 1 thread and at nproc.
  for (const int threads : {1, in.nproc}) {
    const char* name = threads == 1 ? "mathx.call_1t" : "mathx.call_nproc";
    for (int i = 0; i < 400; ++i) {
      Spans::Scope s(spans, name);
      csdac::mathx::parallel_for_indexed(
          64, threads, [](int, std::int64_t) {});
    }
  }
  out["mathx.call_overhead_1t_us"] = median(spans.self_us("mathx.call_1t"));
  out["mathx.call_overhead_us"] = median(spans.self_us("mathx.call_nproc"));

  constexpr int kChips = 8000;
  const auto timed = [&spans](const char* name, const auto& fn) {
    Spans::Scope s(spans, name);
    fn();
  };
  csdac::dac::YieldEstimate y1, yn;
  timed("dac.inl", [&] {
    y1 = csdac::dac::inl_yield_mc(inl.spec, inl.sigma_unit, kChips, inl.seed,
                                  inl.limit, inl.ref, 1);
  });
  timed("mathx.inl_nproc", [&] {
    yn = csdac::dac::inl_yield_mc(inl.spec, inl.sigma_unit, kChips, inl.seed,
                                  inl.limit, inl.ref, in.nproc);
  });
  if (y1.pass != yn.pass) {
    throw std::runtime_error(
        "layer probe: inl_yield_mc differs across threads");
  }
  const double t1 = median(spans.self_us("dac.inl"));
  const double tn = median(spans.self_us("mathx.inl_nproc"));
  out["mathx.utilization"] = yn.stats.utilization;
  out["mathx.scaling_eff"] = t1 / tn / in.nproc;
  out["dac.inl_chips_per_s"] = kChips / (t1 * 1e-6);

  timed("dac.cal", [&] {
    csdac::dac::calibration_yield_mc(cal.spec, cal.sigma_unit, cal.cal,
                                     kChips / 2, cal.seed, cal.limit, 1);
  });
  out["dac.cal_chips_per_s"] =
      (kChips / 2) / (median(spans.self_us("dac.cal")) * 1e-6);
  timed("dac.is", [&] {
    csdac::dac::inl_yield_is(is.spec, is.sigma_unit, is.sigma_scale, is.modes,
                             kChips / 2, is.seed, is.limit, is.ref, 1);
  });
  out["dac.is_chips_per_s"] =
      (kChips / 2) / (median(spans.self_us("dac.is")) * 1e-6);
  timed("dac.strat", [&] {
    csdac::dac::inl_yield_stratified(strat.spec, strat.sigma_unit,
                                     strat.strata, kChips / 2, strat.seed,
                                     strat.limit, strat.ref, 1);
  });
  out["dac.strat_chips_per_s"] =
      (kChips / 2) / (median(spans.self_us("dac.strat")) * 1e-6);

  const rt::Job& dyn = jobs.at(rt::JobKind::kDynSpectrum);
  timed("arch.dyn_spectrum", [&] { rt::execute_job(dyn, 1, nullptr); });
  out["arch.dyn_chip_ms"] = median(spans.self_us("arch.dyn_spectrum")) * 1e-3 /
                            as<rt::DynSpectrumJob>(dyn).chips;
  const rt::Job& arch = jobs.at(rt::JobKind::kArchCompare);
  timed("arch.compare", [&] { rt::execute_job(arch, 1, nullptr); });
  out["arch.compare_ms"] = median(spans.self_us("arch.compare")) * 1e-3;

  const rt::Job& spice = jobs.at(rt::JobKind::kSpiceMc);
  rt::JobValue sv;
  timed("spice.mc", [&] { sv = rt::execute_job(spice, 1, nullptr); });
  const auto& sr = std::get<rt::SpiceMcResult>(sv);
  const double corners = static_cast<double>(sr.chips);
  out["spice.corner_ms"] = median(spans.self_us("spice.mc")) * 1e-3 / corners;
  out["spice.newton_iters_per_corner"] = sr.newton_iters / corners;
  out["spice.refactor_per_corner"] = sr.refactorizations / corners;
}

}  // namespace

void layer_probes(const LayerInputs& in, Spans& spans, Metrics& out) {
  const Workload& w = *in.workload;
  // The workload's own first requests, client by client, as the replay
  // generates them; a smaller sample for the compute-heavy mixes, whose
  // job values must be computed here.
  const std::size_t want = w.pool.empty() ? 16 : 64;
  std::vector<std::vector<std::int64_t>> requests;
  std::vector<Cursor> cursors = make_cursors(w, in.seed);
  for (std::size_t i = 0; requests.size() < want; ++i) {
    const int c = static_cast<int>(i % static_cast<std::size_t>(w.clients));
    std::vector<std::int64_t> ids;
    w.next(c, cursors[static_cast<std::size_t>(c)], ids);
    ++cursors[static_cast<std::size_t>(c)].n;
    requests.push_back(std::move(ids));
  }
  std::map<std::int64_t, std::size_t> index;
  std::vector<std::string> jsons;
  for (const auto& ids : requests) {
    for (const std::int64_t id : ids) {
      if (index.emplace(id, jsons.size()).second) {
        jsons.push_back(w.job_json(id));
      }
    }
  }
  const std::vector<Reference> refs = compute_references(jsons, in.nproc);
  std::vector<SampleRequest> sample;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    SampleRequest s;
    s.text = request_text(w, requests[r], "pb-trace-" + std::to_string(r));
    for (const std::int64_t id : requests[r]) s.refs.push_back(index.at(id));
    sample.push_back(std::move(s));
  }

  out["obs.trace_overhead_frac"] =
      pipeline_probe(sample, refs, in.nproc, 1.5, spans);
  out["serve.parse_us"] = median(spans.self_us("serve.parse"));
  out["serve.encode_us"] = median(spans.self_us("serve.encode"));
  out["serve.frame_us"] = median(spans.self_us("serve.frame"));
  out["runtime.key_us"] = median(spans.self_us("runtime.key"));
  out["runtime.hot_hit_us"] = median(spans.self_us("runtime.hot_hit"));
  out["runtime.queue_us"] =
      median(spans.self_us("runtime.sched_hit")) - out["runtime.hot_hit_us"];

  runtime_probes(refs, in.work_dir + "/layer-cache", spans);
  out["runtime.disk_hit_us"] = median(spans.self_us("runtime.disk_hit"));
  out["runtime.codec_us"] = median(spans.self_us("runtime.codec"));

  compute_probes(in, spans, out);
}

}  // namespace perfbench
