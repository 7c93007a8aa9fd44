// Persistent concurrent design server: a length-framed TCP listener
// (framing.hpp) that answers each "csdac-request/1" payload through the
// shared answer path (answer.hpp) on ONE long-lived Scheduler, so any
// number of concurrent clients multiplex over one worker pool, one
// in-memory hot tier and one disk cache — with cross-request
// single-flight dedup and per-client admission control inherited from the
// scheduler.
//
// Connection model: one thread per connection (bounded by
// max_connections; excess connections get a "busy" error frame and are
// closed). A connection's thread is joined at the next accept after it
// ends, so the server holds threads for its live connections, not for
// every connection it has seen. Framing errors answer a best-effort
// error frame and drop the connection; payload errors (bad JSON, bad
// schema, bad job fields) answer a structured "csdac-serve/4" error frame
// and KEEP the connection open — one malformed request never takes down
// a client's session, let alone the server.
//
// Control channel ("csdac-ctl/1" payloads on the same port):
//   {"schema":"csdac-ctl/1","cmd":"ping"}      liveness probe
//   {"schema":"csdac-ctl/1","cmd":"metrics"}   Prometheus text dump
//   {"schema":"csdac-ctl/1","cmd":"dump"}      flight-recorder Chrome trace
//   {"schema":"csdac-ctl/1","cmd":"shutdown"}  ack, then wake wait()
//
// Tracing: every design request carries a trace id — the caller's
// "trace_id" field when given (<= 39 bytes), a minted "sv-<conn>-<n>"
// otherwise — echoed in the reply and attached to the serve.request span,
// the scheduler's sched.job span, and the executor's exec.job span, so
// one id follows the request across every thread that touched it. Each
// job's reply entry carries a per-stage latency breakdown (see
// response.hpp), and requests slower than ServerOptions::slow_us land in
// a structured JSONL slow log with the full breakdown.
//
// Observability: serve.connections / serve.connections_active /
// serve.rejected / serve.errors / serve.slow_requests here, plus the
// request series of answer.hpp — all in the process-wide obs registry,
// exported by the csdac_serve tool's --metrics-out or the ctl metrics
// command.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/json.hpp"
#include "runtime/scheduler.hpp"
#include "serve/framing.hpp"

namespace csdac::serve {

struct ServerOptions {
  /// Listen address. Loopback by default: the service speaks a private
  /// protocol and sits behind clients on the same host.
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with port().
  int port = 0;
  /// Hard cap on simultaneous connections; excess are answered with a
  /// "busy" error frame and closed.
  int max_connections = 64;
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Tail-sampling threshold, microseconds: requests whose handling takes
  /// at least this long are written to the slow log with their full stage
  /// breakdown. 0 samples every request; negative (default) disables.
  std::int64_t slow_us = -1;
  /// JSONL file receiving sampled slow requests (appended, one object per
  /// line). Empty leaves sampling active (counter + flight recorder) but
  /// writes no file.
  std::string slow_log;
  runtime::SchedulerOptions sched;
};

struct ServerCounters {
  std::int64_t connections = 0;  ///< accepted, lifetime
  std::int64_t requests = 0;     ///< design requests answered (ok or error)
  std::int64_t errors = 0;       ///< error frames sent (payload or framing)
  std::int64_t rejected = 0;     ///< connections refused at the cap
  std::int64_t slow = 0;         ///< requests sampled into the slow log
};

class Server {
 public:
  /// Binds and listens (throws std::runtime_error on failure) but does
  /// not accept yet — call start().
  explicit Server(ServerOptions opts);
  /// stop()s if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Starts the accept loop (idempotent).
  void start();
  /// Stops accepting, shuts down open connections, joins every thread.
  /// Safe to call repeatedly; never called from a connection thread.
  void stop();
  /// Blocks until a ctl shutdown arrives or stop() is called elsewhere.
  void wait();
  /// True once a ctl shutdown was acknowledged (or stop() ran). Lets a
  /// driver poll alongside its own signal flags instead of blocking.
  bool shutdown_requested() const {
    return stop_requested_.load(std::memory_order_acquire);
  }

  /// The port actually bound (resolves opts.port == 0).
  int port() const { return port_; }
  runtime::Scheduler& scheduler() { return *sched_; }
  ServerCounters counters() const;
  /// Connection threads not yet joined: the live connections plus those
  /// that ended since the last accept (each accept joins them).
  std::size_t connection_threads() const;
  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  void accept_loop();
  /// Joins the threads of connections that ended since the last call, so
  /// the server holds only its live connections' threads (and stacks),
  /// however many connections it has seen. Called on every accept.
  void join_ended_connections();
  void handle_connection(int fd, std::uint64_t conn_id);
  /// One payload in, one reply payload out. Never throws. Sets
  /// *shutdown_after when the reply acknowledges a ctl shutdown (the
  /// connection thread wakes wait() only AFTER writing the ack).
  std::string handle_payload(const std::string& payload,
                             std::uint64_t conn_id, bool* shutdown_after);
  std::string handle_control(const runtime::JsonValue& request,
                             bool* shutdown_after);
  /// Appends one JSONL record for a sampled slow request (no-op without a
  /// slow log file). Serialized internally.
  void log_slow_request(const std::string& line);

  ServerOptions opts_;
  std::unique_ptr<runtime::Scheduler> sched_;
  int listen_fd_ = -1;
  int port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::thread accept_thread_;

  mutable std::mutex mutex_;
  std::condition_variable cv_stop_;
  std::map<std::uint64_t, std::thread> conn_threads_;  ///< by conn id
  std::vector<std::uint64_t> ended_conns_;  ///< threads done, not joined
  std::vector<int> conn_fds_;  ///< open connection fds (for shutdown())
  std::int64_t active_ = 0;
  std::uint64_t next_conn_id_ = 1;
  ServerCounters counters_;

  std::mutex slow_mutex_;
  std::FILE* slow_file_ = nullptr;  ///< open slow log (owned)
};

}  // namespace csdac::serve
