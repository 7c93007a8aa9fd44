// Tests for the shared long-lived scheduler: future-based submission,
// cross-request single-flight dedup, per-client admission control,
// round-robin fairness, batch-lifetime independence (the regression for
// the old batch-scoped runtime), per-client state that goes when a client
// drains, hot hits answered on the submitting thread, and several
// schedulers sharing one executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/accuracy.hpp"
#include "obs/span.hpp"
#include "runtime/scheduler.hpp"

namespace csdac::runtime {
namespace {

InlYieldJob job_with(std::uint64_t seed, int chips) {
  InlYieldJob j;
  j.sigma_unit = core::unit_sigma_spec(j.spec.nbits, j.spec.inl_yield);
  j.chips = chips;
  j.seed = seed;
  return j;
}

SchedulerOptions ram_only(int workers) {
  SchedulerOptions o;
  o.workers = workers;
  o.exec.hot_bytes = 1 << 20;  // RAM-only tiers: no scratch dir needed
  return o;
}

// A span collector that, until open(), holds every thread but the one that
// built it at its first finished span. A one-worker scheduler's worker
// then stays inside its first job while the test queues the rest, so the
// order in which it serves them is the scheduler's choice, not a race
// between the worker and the submitting thread. The building thread must
// emit no span while the gate is shut: Tracer::emit holds its lock across
// the sinks.
class GatedCollector : public obs::SpanCollector {
 public:
  GatedCollector() { obs::Tracer::global().add_sink(this); }
  ~GatedCollector() override {
    open();
    obs::Tracer::global().remove_sink(this);
  }
  GatedCollector(const GatedCollector&) = delete;
  GatedCollector& operator=(const GatedCollector&) = delete;

  void on_span(const obs::SpanRecord& span) override {
    if (std::this_thread::get_id() != owner_) {
      std::unique_lock<std::mutex> lock(mutex_);
      opened_.wait(lock, [this] { return open_; });
    }
    obs::SpanCollector::on_span(span);
  }

  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    opened_.notify_all();
  }

 private:
  const std::thread::id owner_ = std::this_thread::get_id();
  std::mutex mutex_;
  std::condition_variable opened_;
  bool open_ = false;
};

TEST(Scheduler, ResolvesFutureWithTheDirectResult) {
  Scheduler sched(ram_only(2));
  const Job job = job_with(11, 50);
  const auto ticket = sched.submit(job, /*client=*/1, "direct");
  const Scheduler::ResultPtr res = ticket.future.get();
  ASSERT_TRUE(res);
  const JobValue direct = execute_job(job, 1, nullptr);
  EXPECT_EQ(std::get<YieldResult>(res->value).yield,
            std::get<YieldResult>(direct).yield);
  EXPECT_EQ(std::get<YieldResult>(res->value).pass,
            std::get<YieldResult>(direct).pass);
  const SchedulerCounters c = sched.counters();
  EXPECT_EQ(c.submitted, 1);
  EXPECT_EQ(c.completed, 1);
}

TEST(Scheduler, RejectsBadOptions) {
  SchedulerOptions o;
  o.max_inflight_per_client = 0;
  EXPECT_THROW(Scheduler{o}, std::invalid_argument);
}

TEST(Scheduler, DedupsIdenticalInFlightJobsAcrossClients) {
  // One worker: the blocker pins it, so both target submissions are
  // queued when the second arrives — deterministic dedup. Sized like the
  // admission-cap test's blocker (~100 ms of chips) so it outlasts both
  // submits even on a loaded runner.
  Scheduler sched(ram_only(1));
  const auto blocker = sched.submit(job_with(900, 20000), 0, "blocker");
  // The worker must hold the blocker before the target is queued: were
  // both queued at its first pick, round-robin could run the small target
  // first and finish it before the second submit. Taking the blocker
  // drops client 0's queue and keeps its load entry.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sched.client_state() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const Job target = job_with(901, 50);
  const auto t1 = sched.submit(target, 1, "first");
  const auto t2 = sched.submit(target, 2, "second");
  EXPECT_FALSE(t1.deduped);
  EXPECT_TRUE(t2.deduped);
  EXPECT_EQ(t1.key, t2.key);

  const Scheduler::ResultPtr r1 = t1.future.get();
  const Scheduler::ResultPtr r2 = t2.future.get();
  // Same task, same shared result object — ran exactly once.
  EXPECT_EQ(r1.get(), r2.get());
  EXPECT_EQ(r1->tier, ResultTier::kComputed);
  blocker.future.wait();
  const SchedulerCounters c = sched.counters();
  EXPECT_EQ(c.dedup_inflight, 1);
  EXPECT_EQ(c.submitted, 2);  // dedup attachments are not submissions
}

TEST(Scheduler, CompletedJobsAreServedByTheCacheNotDedup) {
  Scheduler sched(ram_only(1));
  const Job job = job_with(77, 50);
  sched.submit(job, 0).future.wait();
  // A task leaves the in-flight table before its future resolves, so a
  // resubmit right after get() can never join the finished task.
  for (int i = 0; i < 200; ++i) {
    const auto again = sched.submit(job, 0);
    ASSERT_FALSE(again.deduped) << "resubmit " << i;
    ASSERT_EQ(again.future.get()->tier, ResultTier::kHot) << "resubmit " << i;
  }
}

TEST(Scheduler, AdmissionCapBlocksSubmitUntilSlotsFree) {
  SchedulerOptions o = ram_only(1);
  o.max_inflight_per_client = 1;
  Scheduler sched(o);

  // Heavy enough that it is still running when the next submit arrives
  // even on a loaded 1-core runner (~100 ms of chips vs. a microsecond
  // gap between the two calls).
  const auto first = sched.submit(job_with(300, 20000), 7, "slow");
  // The same client's next submit must block until the first completes.
  const auto second = sched.submit(job_with(301, 50), 7, "blocked");
  EXPECT_TRUE(first.future.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready)
      << "submit returned before the client's slot freed";
  second.future.wait();
  EXPECT_GE(sched.counters().admission_waits, 1);
}

TEST(Scheduler, RoundRobinInterleavesClientsAndTracesTheirIds) {
  GatedCollector collector;
  {
    Scheduler sched(ram_only(1));
    std::vector<Scheduler::Ticket> tickets;
    // Pin the worker, then queue client 0 twice and client 1 once. The
    // round-robin pick must serve client 1 between client 0's jobs.
    tickets.push_back(sched.submit(job_with(500, 300), 0, "blocker"));
    tickets.push_back(sched.submit(job_with(501, 50), 0, "a2"));
    tickets.push_back(sched.submit(job_with(502, 50), 0, "a3"));
    tickets.push_back(sched.submit(job_with(503, 50), 1, "b1"));
    collector.open();
    for (const auto& t : tickets) t.future.wait();
  }

  // A sched.job span closes when its job finishes, so the collector holds
  // them in finish order.
  std::vector<std::string> finish_order;
  for (const obs::SpanRecord& span : collector.take()) {
    if (span.name != "sched.job") continue;
    std::string label, client;
    for (const auto& [k, v] : span.attrs) {
      if (k == "label") label = v;
      if (k == "client") client = v;
    }
    EXPECT_EQ(client, label == "b1" ? "1" : "0") << label;
    finish_order.push_back(label);
  }
  ASSERT_EQ(finish_order.size(), 4u);
  // Whether the worker grabbed "blocker" before or after the rest were
  // queued, round-robin must serve client 1's lone job before client 0's
  // second one — b1 strictly ahead of a2 and a3.
  const auto pos = [&finish_order](const std::string& label) {
    return std::find(finish_order.begin(), finish_order.end(), label) -
           finish_order.begin();
  };
  EXPECT_LT(pos("b1"), pos("a2")) << "client 1 was starved by client 0";
  EXPECT_LT(pos("b1"), pos("a3"));
}

TEST(Scheduler, SecondBatchNeitherBlocksOnNorCorruptsTheFirst) {
  // Regression for the batch-scoped runtime: a long first batch must not
  // delay an independent second batch past the fairness slice, and both
  // must produce the same values as direct execution.
  GatedCollector collector;
  const Job a1 = job_with(600, 300), a2 = job_with(601, 300),
            a3 = job_with(602, 300);
  const Job b1 = job_with(700, 40);
  Scheduler::ResultPtr rb, ra[3];
  {
    Scheduler sched(ram_only(1));
    const auto ta1 = sched.submit(a1, 0, "a1");
    const auto ta2 = sched.submit(a2, 0, "a2");
    const auto ta3 = sched.submit(a3, 0, "a3");
    const auto tb1 = sched.submit(b1, 1, "b1");
    collector.open();
    rb = tb1.future.get();
    ra[0] = ta1.future.get();
    ra[1] = ta2.future.get();
    ra[2] = ta3.future.get();
  }

  // Batch B resolves while batch A still has queued work: with one
  // worker and round-robin, b1 runs right after the job in flight, ahead
  // of a3: b1's sched.job span starts first. The order, unlike a
  // wall-clock window, holds however loaded the machine is.
  double b1_start = -1.0, a3_start = -1.0;
  for (const obs::SpanRecord& span : collector.take()) {
    if (span.name != "sched.job") continue;
    for (const auto& [k, v] : span.attrs) {
      if (k != "label") continue;
      if (v == "b1") b1_start = span.start_us;
      if (v == "a3") a3_start = span.start_us;
    }
  }
  ASSERT_GE(b1_start, 0.0) << "no sched.job span for b1";
  ASSERT_GE(a3_start, 0.0) << "no sched.job span for a3";
  EXPECT_LT(b1_start, a3_start) << "batch B waited for the whole of batch A";

  const auto direct_b = execute_job(b1, 1, nullptr);
  EXPECT_EQ(std::get<YieldResult>(rb->value).yield,
            std::get<YieldResult>(direct_b).yield);
  for (const auto& r : ra) EXPECT_EQ(r->tier, ResultTier::kComputed);
  EXPECT_EQ(std::get<YieldResult>(ra[0]->value).yield,
            std::get<YieldResult>(execute_job(a1, 1, nullptr)).yield);
}

TEST(Scheduler, ManyConcurrentSubmittersAllGetCorrectResults) {
  Scheduler sched(ram_only(4));
  constexpr int kClients = 6;
  constexpr int kJobsEach = 8;
  constexpr int kUnique = 5;
  std::vector<std::thread> threads;
  std::vector<std::vector<double>> yields(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&sched, &yields, c] {
      for (int i = 0; i < kJobsEach; ++i) {
        const auto t =
            sched.submit(job_with(800 + (c + i) % kUnique, 60),
                         static_cast<std::uint64_t>(c));
        yields[c].push_back(
            std::get<YieldResult>(t.future.get()->value).yield);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every client that asked question u must have gotten the same answer.
  const JobValue expect[kUnique] = {
      execute_job(job_with(800, 60), 1, nullptr),
      execute_job(job_with(801, 60), 1, nullptr),
      execute_job(job_with(802, 60), 1, nullptr),
      execute_job(job_with(803, 60), 1, nullptr),
      execute_job(job_with(804, 60), 1, nullptr),
  };
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kJobsEach; ++i) {
      EXPECT_EQ(yields[c][static_cast<std::size_t>(i)],
                std::get<YieldResult>(expect[(c + i) % kUnique]).yield)
          << "client " << c << " job " << i;
    }
  }
  const SchedulerCounters counters = sched.counters();
  EXPECT_EQ(counters.submitted + counters.dedup_inflight,
            kClients * kJobsEach);
  EXPECT_EQ(counters.completed, counters.submitted);
}

TEST(Scheduler, DrainedClientsLeaveNoPerClientState) {
  // The server gives every connection a fresh client id, so per-client
  // entries must go when a client's work drains, or a long-lived server
  // walks every past connection's empty queue under its global lock.
  Scheduler sched(ram_only(4));
  constexpr int kClients = 10000;
  std::vector<Scheduler::Ticket> tickets;
  tickets.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    tickets.push_back(sched.submit(job_with(20000 + c, 1),
                                   static_cast<std::uint64_t>(c)));
  }
  for (const auto& t : tickets) t.future.wait();
  // A client's load drops just after its future resolves; give the last
  // workers a moment to get there.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sched.client_state() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(sched.client_state(), 0u);
  EXPECT_EQ(sched.inflight(), 0);
  EXPECT_EQ(sched.counters().completed, kClients);
}

// --- Hot hits answered on the submitting thread ---------------------------

TEST(SchedulerHotHit, FutureIsReadyOnReturnWithZeroWaits) {
  Scheduler sched(ram_only(1));
  const Job job = job_with(1100, 50);
  const Scheduler::ResultPtr cold = sched.submit(job, 3).future.get();
  ASSERT_EQ(cold->tier, ResultTier::kComputed);

  const auto warm = sched.submit(job, 3, "warm");
  ASSERT_EQ(warm.future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_FALSE(warm.deduped);
  const Scheduler::ResultPtr hit = warm.future.get();
  EXPECT_EQ(hit->tier, ResultTier::kHot);
  EXPECT_EQ(hit->stages.queue_us, 0);
  EXPECT_EQ(hit->stages.admission_us, 0);
  EXPECT_EQ(hit->stages.compute_us, 0);
  EXPECT_EQ(hit->stats.evaluated, 0);
  EXPECT_EQ(std::get<YieldResult>(hit->value).yield,
            std::get<YieldResult>(cold->value).yield);
  const SchedulerCounters c = sched.counters();
  EXPECT_EQ(c.submitted, 2);
  EXPECT_EQ(c.completed, 2);
  EXPECT_EQ(sched.inflight(), 0);
}

TEST(SchedulerHotHit, ClientAtItsCapIsAnsweredWithoutBlocking) {
  SchedulerOptions o = ram_only(1);
  o.max_inflight_per_client = 1;
  Scheduler sched(o);
  const Job warm = job_with(1200, 50);
  sched.submit(warm, 7).future.wait();

  // The slow job fills client 7's only slot; a miss would now block until
  // it finishes, a hot hit must not.
  const auto slow = sched.submit(job_with(1201, 20000), 7, "slow");
  const std::int64_t waits = sched.counters().admission_waits;
  const auto hit = sched.submit(warm, 7, "hit");
  EXPECT_EQ(hit.future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(hit.future.get()->tier, ResultTier::kHot);
  EXPECT_EQ(hit.future.get()->stages.admission_us, 0);
  EXPECT_EQ(sched.counters().admission_waits, waits);
  slow.future.wait();
}

TEST(SchedulerHotHit, EmitsSchedJobOverExecJobWithTraceAndParent) {
  obs::SpanCollector collector;
  obs::Tracer::global().add_sink(&collector);
  std::vector<obs::SpanRecord> cold_spans, hit_spans;
  {
    Scheduler sched(ram_only(1));
    const Job job = job_with(1300, 50);
    sched.submit(job, 5, "cold", "t-cold", 4241).future.wait();
    cold_spans = collector.take();
    sched.submit(job, 5, "warm", "t-hot", 4242).future.wait();
    hit_spans = collector.take();
  }
  obs::Tracer::global().remove_sink(&collector);

  const auto attr = [](const obs::SpanRecord& s, const std::string& key) {
    for (const auto& [k, v] : s.attrs) {
      if (k == key) return v;
    }
    return std::string();
  };
  const auto named = [](const std::vector<obs::SpanRecord>& spans,
                        const std::string& name) {
    std::vector<const obs::SpanRecord*> out;
    for (const auto& s : spans) {
      if (s.name == name) out.push_back(&s);
    }
    return out;
  };
  // The cold job's probe missed: the worker's span is the only one.
  EXPECT_EQ(named(cold_spans, "sched.job").size(), 1u);

  const auto sched_spans = named(hit_spans, "sched.job");
  const auto exec_spans = named(hit_spans, "exec.job");
  ASSERT_EQ(sched_spans.size(), 1u);
  ASSERT_EQ(exec_spans.size(), 1u);
  const obs::SpanRecord& sj = *sched_spans[0];
  const obs::SpanRecord& ej = *exec_spans[0];
  EXPECT_EQ(sj.parent, 4242u);
  EXPECT_EQ(attr(sj, "trace_id"), "t-hot");
  EXPECT_EQ(attr(sj, "kind"), "inl_yield");
  EXPECT_EQ(attr(sj, "label"), "warm");
  EXPECT_EQ(attr(sj, "client"), "5");
  EXPECT_EQ(ej.parent, sj.id);
  EXPECT_EQ(attr(ej, "trace_id"), "t-hot");
  EXPECT_EQ(attr(ej, "tier"), "hot");
}

TEST(SchedulerHotHit, EverySubmittedJobRecordsOneHotOutcome) {
  // Cold then warm, with in-flight duplicates: each submitted job counts
  // exactly one hot-tier hit or miss (a queued task's miss by the worker,
  // an inline hit by the probe), and a dedup attachment counts none. The
  // gate keeps the worker in its first job until every duplicate is in.
  GatedCollector gate;
  Scheduler sched(ram_only(1));
  std::vector<Scheduler::Ticket> tickets;
  tickets.push_back(sched.submit(job_with(1400, 300), 0, "blocker"));
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(sched.submit(job_with(1401 + i, 50), 1));
    tickets.push_back(sched.submit(job_with(1401 + i % 2, 50), 2));
  }
  gate.open();
  for (const auto& t : tickets) t.future.wait();
  for (int i = 0; i < 5; ++i) {
    const auto warm = sched.submit(job_with(1400 + i, i ? 50 : 300), 3);
    EXPECT_EQ(warm.future.get()->tier, ResultTier::kHot);
  }
  const SchedulerCounters c = sched.counters();
  const HotCacheCounters hot = sched.executor().hot_counters();
  EXPECT_GE(c.dedup_inflight, 1);
  EXPECT_EQ(hot.hits + hot.misses, c.submitted);
  EXPECT_GE(hot.hits, 5);
  EXPECT_EQ(c.completed, c.submitted);
}

// --- Schedulers on a shared executor -------------------------------------

TEST(SharedExecutorGraph, GraphsShareOneSetOfCacheTiers) {
  ExecutorOptions eo;
  eo.hot_bytes = 1 << 20;
  auto exec = std::make_shared<JobExecutor>(eo);
  const Job job = job_with(42, 50);

  Scheduler::ResultPtr r1, r2;
  {
    Scheduler s1(ram_only(1), exec);
    r1 = s1.submit(job).future.get();
  }
  EXPECT_FALSE(r1->cache_hit());

  Scheduler s2(ram_only(1), exec);
  r2 = s2.submit(job).future.get();
  EXPECT_TRUE(r2->cache_hit());
  EXPECT_EQ(r2->tier, ResultTier::kHot);
  EXPECT_EQ(r1->stats.evaluated + r2->stats.evaluated, 50);
  EXPECT_EQ(std::get<YieldResult>(r1->value).yield,
            std::get<YieldResult>(r2->value).yield);
}

TEST(SharedExecutorGraph, ConcurrentGraphsOnOneExecutorStayIndependent) {
  ExecutorOptions eo;
  eo.hot_bytes = 1 << 20;
  auto exec = std::make_shared<JobExecutor>(eo);
  std::vector<std::thread> threads;
  std::vector<double> yields(4, -1.0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&exec, &yields, t] {
      Scheduler sched(ram_only(1), exec);
      // Two schedulers share job 1000; two share job 1001.
      const Scheduler::ResultPtr r =
          sched.submit(job_with(1000 + (t % 2), 60)).future.get();
      yields[static_cast<std::size_t>(t)] =
          std::get<YieldResult>(r->value).yield;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(yields[0], yields[2]);
  EXPECT_EQ(yields[1], yields[3]);
  EXPECT_EQ(yields[0],
            std::get<YieldResult>(execute_job(job_with(1000, 60), 1, nullptr))
                .yield);
  EXPECT_EQ(yields[1],
            std::get<YieldResult>(execute_job(job_with(1001, 60), 1, nullptr))
                .yield);
}

}  // namespace
}  // namespace csdac::runtime
