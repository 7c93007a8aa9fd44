#include "runtime/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "mathx/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace csdac::runtime {

namespace {

struct SchedMetrics {
  obs::Counter& submitted;
  obs::Counter& completed;
  obs::Counter& dedup;
  obs::Counter& admission_waits;
  obs::Gauge& queue_depth;
  obs::Gauge& inflight;
  obs::Histogram& queue_us;
  obs::Histogram& job_us;

  static SchedMetrics& get() {
    obs::Registry& r = obs::Registry::global();
    static SchedMetrics m{
        r.counter("sched.submitted", "jobs submitted to the scheduler"),
        r.counter("sched.completed", "jobs completed by the scheduler"),
        r.counter("sched.dedup_inflight",
                  "submissions deduplicated onto an in-flight task"),
        r.counter("sched.admission_waits",
                  "submits that blocked on the per-client cap"),
        r.gauge("sched.queue_depth", "tasks queued (not yet running)"),
        r.gauge("sched.inflight", "tasks queued or running"),
        r.histogram("sched.queue_us", "task time from submit to start [us]"),
        r.histogram("sched.job_us", "task execution wall time [us]"),
    };
    return m;
  }
};

/// The sched.job span's attributes, for a worker-run job and an inline
/// hot hit alike.
void tag_job_span(obs::ScopedSpan& span, JobKind kind, std::string_view label,
                  std::uint64_t client, std::string_view trace_id) {
  span.attr("kind", kind_name(kind))
      .attr("label", label)
      .attr("client", static_cast<std::int64_t>(client));
  if (!trace_id.empty()) span.attr("trace_id", trace_id);
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Scheduler::Scheduler(SchedulerOptions opts,
                     std::shared_ptr<JobExecutor> executor)
    : opts_(std::move(opts)), executor_(std::move(executor)) {
  if (opts_.threads_per_job < 0 || opts_.max_inflight_per_client < 1) {
    throw std::invalid_argument("Scheduler: bad options");
  }
  if (!executor_) {
    executor_ = std::make_shared<JobExecutor>(opts_.exec);
  }
  const int n = mathx::resolve_threads(opts_.workers);
  opts_.workers = n;
  threads_.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  cv_slot_.notify_all();
  for (auto& t : threads_) t.join();
  // Anything still queued resolves to a broken promise for any holder of
  // its future; the server always waits on its tickets, so this only
  // triggers on teardown-with-abandoned-work.
}

Scheduler::Ticket Scheduler::submit(Job job, std::uint64_t client,
                                    std::string label, std::string trace_id,
                                    std::uint64_t parent_span) {
  const mathx::HashKey128 key = job_key(job);
  return submit(std::move(job), key, client, std::move(label),
                std::move(trace_id), parent_span);
}

Scheduler::Ticket Scheduler::submit(Job job, const mathx::HashKey128& key,
                                    std::uint64_t client, std::string label,
                                    std::string trace_id,
                                    std::uint64_t parent_span) {
  const JobKind kind = job_kind(job);
  SchedMetrics& m = SchedMetrics::get();
  if (label.empty()) label = std::string(kind_name(kind));

  // A hot hit adds no work, so it is answered here on the caller's
  // thread: no in-flight entry, no client queue, no admission slot, no
  // worker wake-up. The probe counts only hits; a miss is counted by the
  // worker's lookup, which also answers from RAM a task that finished
  // between this probe and the enqueue below.
  if (ExecResult hit;
      executor_->lookup_hot(kind, key, hit, /*count_miss=*/false)) {
    {
      // Opened after the lookup, so a miss emits no span; the pair keeps
      // the sched.job > exec.job shape of a job a worker ran.
      obs::ScopedSpan span("sched.job", parent_span);
      tag_job_span(span, kind, label, client, trace_id);
      obs::ScopedSpan exec("exec.job");
      exec.attr("kind", kind_name(kind)).attr("tier", tier_name(hit.tier));
      if (!trace_id.empty()) exec.attr("trace_id", trace_id);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.submitted;
      ++counters_.completed;
    }
    m.submitted.add(1);
    m.completed.add(1);
    std::promise<ResultPtr> done;
    done.set_value(std::make_shared<const ExecResult>(std::move(hit)));
    return Ticket{key, done.get_future().share(), false};
  }

  std::int64_t admission_us = 0;
  std::unique_lock<std::mutex> lock(mutex_);

  if (const auto it = inflight_.find(key); it != inflight_.end()) {
    ++counters_.dedup_inflight;
    m.dedup.add(1);
    return Ticket{key, it->second->future, true};
  }

  // Admission control: block while this client is at its cap. Re-check the
  // in-flight table after every wake — someone may have submitted the same
  // key meanwhile, which we can join for free.
  while (!stop_ &&
         client_load_[client] >= opts_.max_inflight_per_client) {
    ++counters_.admission_waits;
    m.admission_waits.add(1);
    const double wait0 = now_us();
    cv_slot_.wait(lock, [&] {
      return stop_ ||
             client_load_[client] < opts_.max_inflight_per_client ||
             inflight_.count(key) != 0;
    });
    admission_us += static_cast<std::int64_t>(now_us() - wait0);
    if (const auto it = inflight_.find(key); it != inflight_.end()) {
      ++counters_.dedup_inflight;
      m.dedup.add(1);
      return Ticket{key, it->second->future, true};
    }
  }
  if (stop_) {
    throw std::runtime_error("Scheduler::submit: scheduler stopped");
  }

  auto task = std::make_shared<Task>();
  task->job = std::move(job);
  task->key = key;
  task->label = std::move(label);
  task->trace_id = std::move(trace_id);
  task->parent_span = parent_span;
  task->admission_us = admission_us;
  task->client = client;
  task->submit_us = now_us();
  task->future = task->promise.get_future().share();
  inflight_.emplace(key, task);
  queues_[client].push_back(task);
  ++client_load_[client];
  ++queued_;
  ++counters_.submitted;
  m.submitted.add(1);
  m.queue_depth.set(static_cast<double>(queued_));
  m.inflight.set(static_cast<double>(inflight_.size()));

  lock.unlock();
  cv_work_.notify_one();
  return Ticket{key, task->future, false};
}

/// Round-robin pick: the front task of the first client queue strictly
/// after the cursor, wrapping. Only clients with queued tasks have a
/// queue, so the pick is one map lookup and a drained client leaves no
/// queue behind. Lock held.
Scheduler::TaskPtr Scheduler::next_task_locked() {
  if (queues_.empty()) return nullptr;
  auto it = queues_.upper_bound(rr_cursor_);
  if (it == queues_.end()) it = queues_.begin();
  TaskPtr task = std::move(it->second.front());
  it->second.pop_front();
  rr_cursor_ = it->first;
  if (it->second.empty()) queues_.erase(it);
  --queued_;
  return task;
}

void Scheduler::worker_loop(int /*worker*/) {
  SchedMetrics& m = SchedMetrics::get();
  for (;;) {
    TaskPtr task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_work_.wait(lock, [&] { return stop_ || queued_ > 0; });
      if (stop_) return;
      task = next_task_locked();
      if (!task) continue;
      m.queue_depth.set(static_cast<double>(queued_));
    }

    const std::int64_t queue_us =
        static_cast<std::int64_t>(now_us() - task->submit_us);
    m.queue_us.observe(queue_us);
    ResultPtr result;
    std::exception_ptr error;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      // Cross-thread parent: the submitting request's span, when given
      // (parent 0 keeps the span a root, which is what worker threads had
      // before trace propagation existed).
      obs::ScopedSpan span("sched.job", task->parent_span);
      tag_job_span(span, job_kind(task->job), task->label, task->client,
                   task->trace_id);
      ExecResult er = executor_->run(task->job, task->key,
                                     opts_.threads_per_job, task->trace_id);
      // The scheduler alone can see the pre-execution waits; fold them
      // into the job's stage record before the future freezes it.
      er.stages.admission_us = task->admission_us;
      er.stages.queue_us = queue_us;
      result = std::make_shared<const ExecResult>(std::move(er));
    } catch (...) {
      error = std::current_exception();
    }
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    m.job_us.observe(static_cast<std::int64_t>(wall_s * 1e6));

    // Leave the in-flight table BEFORE resolving the future.
    // JobExecutor::run has already stored the result in the cache tiers,
    // so a duplicate submit arriving in the gap hits the cache. Resolving
    // first would let a client that got this reply and resent at once
    // join the finished task and be answered with its "deduped" miss
    // record and compute stages instead of a cache hit. The client's
    // admission slot frees only AFTER the future resolves, so a submit
    // blocked on the per-client cap never returns ahead of the result
    // that freed its slot.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_.erase(task->key);
      ++counters_.completed;
      m.inflight.set(static_cast<double>(inflight_.size()));
    }
    m.completed.add(1);
    if (error) {
      task->promise.set_exception(error);
    } else {
      task->promise.set_value(std::move(result));
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--client_load_[task->client] == 0) {
        client_load_.erase(task->client);
      }
    }
    cv_slot_.notify_all();
  }
}

SchedulerCounters Scheduler::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::int64_t Scheduler::inflight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::int64_t>(inflight_.size());
}

std::size_t Scheduler::client_state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queues_.size() + client_load_.size();
}

}  // namespace csdac::runtime
