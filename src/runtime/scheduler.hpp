// Long-lived shared scheduler: the execution backend of the persistent
// design server. Callers submit() jobs and get back a shared future; a
// fixed pool of worker threads drains the queues through a shared
// JobExecutor (hot tier + disk cache), so any number of concurrent clients
// multiplex over one set of cores and one result store.
//
// Four properties the serve path depends on:
//
//  * Cross-request single-flight dedup. Submissions are keyed by the job's
//    128-bit content hash; while a key is queued or running, every further
//    submit() of the same key attaches to the SAME task and resolves from
//    the same future — two clients asking the same question run it once.
//    After completion the task leaves the in-flight table and later
//    submissions are answered by the cache tiers instead.
//
//  * Per-client fairness. Each client id has its own FIFO queue; workers
//    pick the next task round-robin over the clients with pending work, so
//    a client flooding thousands of jobs cannot starve a client asking
//    one. Admission control backpressures at submit(): a client may have
//    at most max_inflight_per_client jobs queued+running; further submits
//    block until a slot frees (dedup attachments are free — they add no
//    work).
//
//  * Batch-lifetime independence. Nothing here is scoped to a request or
//    batch: futures resolve in completion order, a second batch submitted
//    while the first is in flight shares the workers and the cache but
//    never blocks on the first batch's completion.
//
//  * Hot hits never queue. submit() looks the key up in the executor's
//    hot tier on the caller's thread; a hit returns a ticket whose future
//    is already resolved (tier hot, queue and admission waits 0). It adds
//    no queued work, so it bypasses the in-flight table, the client
//    queues, round-robin and the admission cap, and no worker wakes. A
//    miss takes the path above unchanged: the disk tier, compute and
//    single-flight dedup behave as if the probe never ran.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/job.hpp"

namespace csdac::runtime {

struct SchedulerOptions {
  /// Worker threads draining the queues (0 = hardware concurrency).
  int workers = 0;
  /// Engine threads INSIDE each job. Servers keep this at 1 so concurrency
  /// comes from many independent jobs, not nested pools.
  int threads_per_job = 1;
  /// Max jobs queued+running per client id before submit() blocks.
  int max_inflight_per_client = 16;
  ExecutorOptions exec;
};

/// Counters of one scheduler instance (process-wide equivalents live in
/// the obs registry as sched.*).
struct SchedulerCounters {
  std::int64_t submitted = 0;  ///< tasks enqueued plus inline hot hits
  std::int64_t completed = 0;
  std::int64_t dedup_inflight = 0;  ///< submissions attached to a live task
  std::int64_t admission_waits = 0;  ///< submits that blocked on the cap
};

class Scheduler {
 public:
  using ResultPtr = std::shared_ptr<const ExecResult>;

  /// Handle to a submitted (or deduplicated) job. future.get() rethrows
  /// any exception the job raised while executing.
  struct Ticket {
    mathx::HashKey128 key;
    std::shared_future<ResultPtr> future;
    bool deduped = false;  ///< attached to an already-in-flight task
  };

  /// Owns its executor (built from opts.exec) unless a shared one is
  /// given. Workers start immediately.
  explicit Scheduler(SchedulerOptions opts,
                     std::shared_ptr<JobExecutor> executor = nullptr);
  /// Drains nothing: pending tasks are abandoned with a broken-promise
  /// error only if the process is going down anyway — prefer waiting on
  /// your tickets before destruction.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Answers `job` from the hot tier on the calling thread when it can
  /// (the ticket's future is then ready on return); otherwise enqueues it
  /// for `client` (any stable id — the server uses the connection id),
  /// blocking while the client is at its admission cap.
  /// `trace_id` tags the job's sched.job/exec.job spans and flows into the
  /// flight recorder; `parent_span` parents the sched.job span (on the
  /// worker, or on the caller for a hot hit) under the caller's span (a
  /// serve.request, typically).
  /// Deduped submissions join the FIRST submitter's task and keep its
  /// trace id — by design: one execution, one attribution.
  Ticket submit(Job job, std::uint64_t client = 0, std::string label = {},
                std::string trace_id = {}, std::uint64_t parent_span = 0);
  /// As above, for a caller that already holds job_key(job) (the serve
  /// path folds a request's repeated keys before submitting).
  Ticket submit(Job job, const mathx::HashKey128& key, std::uint64_t client,
                std::string label, std::string trace_id,
                std::uint64_t parent_span);

  JobExecutor& executor() { return *executor_; }
  SchedulerCounters counters() const;
  int workers() const { return static_cast<int>(threads_.size()); }
  /// Jobs queued or running right now.
  std::int64_t inflight() const;
  /// Per-client entries held (client queues plus load counts); 0 once
  /// every client's work has drained, however many clients came and went.
  std::size_t client_state() const;

 private:
  struct Task {
    Job job;
    mathx::HashKey128 key;
    std::string label;
    std::string trace_id;
    std::uint64_t parent_span = 0;
    std::uint64_t client = 0;
    double submit_us = 0.0;
    std::int64_t admission_us = 0;  ///< time submit() blocked on the cap
    std::promise<ResultPtr> promise;
    std::shared_future<ResultPtr> future;
  };
  using TaskPtr = std::shared_ptr<Task>;

  void worker_loop(int worker);
  TaskPtr next_task_locked();

  SchedulerOptions opts_;
  std::shared_ptr<JobExecutor> executor_;

  mutable std::mutex mutex_;
  std::condition_variable cv_work_;  ///< workers wait for queued tasks
  std::condition_variable cv_slot_;  ///< submitters wait for client slots
  bool stop_ = false;
  std::map<mathx::HashKey128, TaskPtr> inflight_;  ///< queued + running
  /// Clients with queued tasks only: a queue is erased when it empties.
  std::map<std::uint64_t, std::deque<TaskPtr>> queues_;
  std::map<std::uint64_t, int> client_load_;  ///< queued + running, > 0
  std::uint64_t rr_cursor_ = 0;  ///< last client served (round-robin)
  std::int64_t queued_ = 0;
  SchedulerCounters counters_;

  std::vector<std::thread> threads_;
};

}  // namespace csdac::runtime
