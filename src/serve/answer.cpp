#include "serve/answer.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/request.hpp"
#include "serve/response.hpp"

namespace csdac::serve {

namespace {

struct AnswerMetrics {
  obs::Counter& requests;
  obs::Counter& errors;
  obs::Gauge& inflight;
  obs::Histogram& request_us;

  static AnswerMetrics& get() {
    obs::Registry& r = obs::Registry::global();
    static AnswerMetrics m{
        r.counter("serve.requests", "design requests answered"),
        r.counter("serve.errors", "error frames sent"),
        r.gauge("serve.requests_inflight", "requests being handled"),
        r.histogram("serve.request_us", "request handling latency [us]"),
    };
    return m;
  }
};

/// The per-job pipeline stages, in pipeline order: the runtime's stage
/// times plus this reply's serialize time. Every job observes EVERY stage
/// (zeros included) so stage counts always match job counts: a warm pass
/// then shows compute with count > 0 and sum == 0, which is the signal
/// the regression checks key on.
struct JobStages {
  runtime::StageTimes times;
  std::int64_t serialize_us = 0;

  /// f(key, us) per stage, then "total_us" (their sum): the reply's and
  /// the slow log's field names; the histogram label drops the "_us".
  void each(auto&& f) const {
    std::int64_t total = 0;
    const auto stage = [&](std::string_view key, std::int64_t us) {
      total += us;
      f(key, us);
    };
    stage("admission_us", times.admission_us);
    stage("queue_us", times.queue_us);
    stage("hot_us", times.hot_us);
    stage("disk_us", times.disk_us);
    stage("compute_us", times.compute_us);
    stage("store_us", times.store_us);
    stage("serialize_us", serialize_us);
    f("total_us", total);
  }
};

constexpr int kNumStages = 8;

/// serve.stage_us{kind=...,stage=...} histograms for one job kind. The
/// labeled registry lookup takes a mutex, so a kind's references are
/// resolved once, on its first job, into a table indexed by kind (kinds
/// never seen register no series) — the per-job cost is one once-flag
/// check and eight wait-free observe()s.
struct StageHists {
  obs::Histogram* stage[kNumStages] = {};

  static const StageHists& get(runtime::JobKind kind) {
    static std::array<StageHists, runtime::kNumKinds> table;
    static std::array<std::once_flag, runtime::kNumKinds> resolved;
    const auto k = static_cast<std::size_t>(kind) - 1;
    std::call_once(resolved[k], [kind, &hists = table[k]] {
      const std::string kind_s(runtime::kind_name(kind));
      int s = 0;
      JobStages{}.each([&](std::string_view key, std::int64_t) {
        hists.stage[s++] = &obs::Registry::global().histogram(
            "serve.stage_us",
            {{"kind", kind_s},
             {"stage", std::string(key.substr(0, key.size() - 3))}},
            "per-stage job latency attribution [us]");
      });
    });
    return table[k];
  }

  void observe(const JobStages& j) const {
    int s = 0;
    j.each(
        [&](std::string_view, std::int64_t us) { stage[s++]->observe(us); });
  }
};

void emit_stages(bench::JsonWriter& w, const JobStages& j) {
  j.each([&w](std::string_view key, std::int64_t us) { w.field(key, us); });
}

/// Suffix of minted trace ids, process-wide.
std::atomic<std::uint64_t> g_trace_seq{0};

/// The design-request half of answer(). Throws RequestError on a payload
/// the parser refuses.
void answer_request(const runtime::JsonValue& request,
                    runtime::Scheduler& sched, std::uint64_t client,
                    bool metrics, std::int64_t slow_us, Answer& out) {
  AnswerMetrics& m = AnswerMetrics::get();
  const std::vector<RequestJob> jobs = parse_request(request);
  metrics = metrics || request.bool_or("metrics", false);

  // One trace id per request, end to end: the caller's when supplied
  // (bounded so it embeds in fixed-size flight events), a minted
  // "sv-<client>-<n>" otherwise. It rides the serve.request span, every
  // sched.job / exec.job span the request fans out to, the reply, the
  // slow log, and the flight recorder.
  std::string trace = request.string_or("trace_id", "");
  if (trace.size() > kMaxTraceIdBytes) {
    throw RequestError("bad_request",
                       "trace_id exceeds " +
                           std::to_string(kMaxTraceIdBytes) + " bytes");
  }
  if (trace.empty()) {
    trace = "sv-" + std::to_string(client) + "-" +
            std::to_string(g_trace_seq.fetch_add(1,
                                                 std::memory_order_relaxed));
  }

  obs::ScopedSpan span("serve.request");
  span.attr("client", static_cast<std::int64_t>(client))
      .attr("jobs", static_cast<std::int64_t>(jobs.size()))
      .attr("trace_id", trace);
  m.inflight.add(1);
  const auto t0 = std::chrono::steady_clock::now();
  const double flight_start_us = obs::trace_now_us();

  // Submit everything before waiting on anything. A key repeated within
  // the request reuses its first entry's ticket, so it never runs twice
  // even when no cache tier could answer it; across requests the
  // scheduler's in-flight dedup lets two clients asking the same question
  // share one execution (the job then keeps the FIRST submitter's trace
  // id — one execution, one attribution).
  std::vector<runtime::Scheduler::Ticket> tickets;
  tickets.reserve(jobs.size());
  std::vector<bool> repeat(jobs.size());
  std::map<mathx::HashKey128, std::size_t> first;  ///< key -> first entry
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto [it, fresh] = first.emplace(runtime::job_key(jobs[i].job), i);
    if (fresh) {
      tickets.push_back(sched.submit(jobs[i].job, it->first, client,
                                     jobs[i].id, trace, span.id()));
    } else {
      tickets.push_back(tickets[it->second]);
      tickets.back().deduped = true;
      repeat[i] = true;
    }
  }

  bench::JsonWriter w;
  w.begin_object();
  w.field("schema", kResponseSchema);
  w.field("trace_id", trace);
  w.key("jobs").begin_array();
  std::int64_t deduped = 0, chip_evals = 0;
  std::vector<JobStages> job_stages(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const runtime::Scheduler::Ticket& t = tickets[i];
    const runtime::JobKind kind = runtime::job_kind(jobs[i].job);
    w.begin_object();
    w.field("id", jobs[i].id);
    w.field("kind", runtime::kind_name(kind));
    w.field("key", t.key.hex());
    deduped += t.deduped ? 1 : 0;
    try {
      const runtime::Scheduler::ResultPtr res = t.future.get();
      w.field("cache", runtime::tier_name(res->tier));
      w.field("deduped", t.deduped);
      w.field("wall_s", res->wall_seconds);
      w.field("evaluated", res->stats.evaluated);
      const auto s0 = std::chrono::steady_clock::now();
      emit_result(w, res->value);
      JobStages& js = job_stages[i];
      js.times = res->stages;
      js.serialize_us = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - s0)
                            .count();
      w.key("stages").begin_object();
      emit_stages(w, js);
      w.end_object();
      StageHists::get(kind).observe(js);
      if (!repeat[i]) chip_evals += res->stats.evaluated;
    } catch (const std::exception& e) {
      ++out.failed;
      obs::FlightRecorder::global().record(obs::FlightEventKind::kError,
                                           "job_failed", trace,
                                           obs::trace_now_us(), 0.0);
      w.key("error").begin_object();
      w.field("code", "job_failed");
      w.field("message", e.what());
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  w.key("summary").begin_object();
  w.field("requested", static_cast<std::int64_t>(jobs.size()));
  w.field("deduped", deduped);
  w.field("failed", out.failed);
  w.field("chip_evals", chip_evals);
  w.field("wall_s", wall);
  w.end_object();
  if (metrics) {
    w.key("metrics").raw(obs::Registry::global().snapshot().to_json());
  }
  w.end_object();
  out.reply = w.str();

  const std::int64_t wall_us = static_cast<std::int64_t>(wall * 1e6);
  obs::FlightRecorder::global().record(
      obs::FlightEventKind::kRequest, "serve.request", trace,
      flight_start_us, static_cast<double>(wall_us),
      static_cast<std::int64_t>(jobs.size()));

  if (slow_us >= 0 && wall_us >= slow_us) {
    bench::JsonWriter sl;
    sl.begin_object();
    sl.field("ev", "slow_request");
    sl.field("trace_id", trace);
    sl.field("client", static_cast<std::int64_t>(client));
    sl.field("wall_us", wall_us);
    sl.field("jobs", static_cast<std::int64_t>(jobs.size()));
    sl.field("deduped", deduped);
    sl.field("failed", out.failed);
    sl.key("job_stages").begin_array();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      sl.begin_object();
      sl.field("id", jobs[i].id);
      sl.field("kind",
               runtime::kind_name(runtime::job_kind(jobs[i].job)));
      emit_stages(sl, job_stages[i]);
      sl.end_object();
    }
    sl.end_array();
    sl.end_object();
    out.slow_record = sl.str();
  }

  m.inflight.add(-1);
  m.requests.add(1);
  m.request_us.observe(wall_us);
  span.attr("wall_s", wall).attr("deduped", deduped);
}

}  // namespace

Answer answer(std::string_view payload, runtime::Scheduler& sched,
              std::uint64_t client, bool metrics, std::int64_t slow_us,
              const std::function<std::string(const runtime::JsonValue&)>&
                  control) {
  Answer out;
  // A refused payload: one flight event, one error count, an error frame.
  const auto refuse = [&out](std::string_view code,
                             std::string_view msg) -> Answer {
    obs::FlightRecorder::global().record(obs::FlightEventKind::kError, code,
                                         {}, obs::trace_now_us(), 0.0);
    AnswerMetrics::get().errors.add(1);
    out.refused = true;
    out.reply = error_frame(code, msg);
    return std::move(out);
  };
  runtime::JsonValue request;
  std::string err;
  if (!runtime::parse_json(payload, request, &err)) {
    return refuse("bad_json", err);
  }
  if (control && request.string_or("schema", "") == kControlSchema) {
    out.control = true;
    out.reply = control(request);
    return out;
  }
  try {
    answer_request(request, sched, client, metrics, slow_us, out);
    return out;
  } catch (const RequestError& e) {
    return refuse(e.code(), e.what());
  } catch (const std::exception& e) {
    return refuse("internal", e.what());
  }
}

}  // namespace csdac::serve
