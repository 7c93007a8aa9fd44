#include "serve/server.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "serve/answer.hpp"
#include "serve/response.hpp"

namespace csdac::serve {

namespace {

struct ServeMetrics {
  obs::Counter& connections;
  obs::Counter& errors;
  obs::Counter& rejected;
  obs::Counter& slow;
  obs::Gauge& active;

  static ServeMetrics& get() {
    obs::Registry& r = obs::Registry::global();
    static ServeMetrics m{
        r.counter("serve.connections", "connections accepted"),
        r.counter("serve.errors", "error frames sent"),
        r.counter("serve.rejected", "connections refused at the cap"),
        r.counter("serve.slow_requests",
                  "requests at or over the slow_us threshold"),
        r.gauge("serve.connections_active", "connections open right now"),
    };
    return m;
  }
};

}  // namespace

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {
  sched_ = std::make_unique<runtime::Scheduler>(opts_.sched);
  if (opts_.slow_us >= 0 && !opts_.slow_log.empty()) {
    slow_file_ = std::fopen(opts_.slow_log.c_str(), "ab");
    if (!slow_file_) {
      throw std::runtime_error("serve: cannot open slow log " +
                               opts_.slow_log);
    }
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::runtime_error("serve: bad listen address " + opts_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("serve: cannot bind " + opts_.host + ":" +
                             std::to_string(opts_.port));
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("serve: listen() failed");
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = static_cast<int>(ntohs(bound.sin_port));
}

Server::~Server() {
  stop();
  if (slow_file_) std::fclose(slow_file_);
}

void Server::log_slow_request(const std::string& line) {
  std::lock_guard<std::mutex> lock(slow_mutex_);
  if (!slow_file_) return;
  std::fwrite(line.data(), 1, line.size(), slow_file_);
  std::fputc('\n', slow_file_);
  // Flushed per record: the slow log exists to survive the process dying
  // mid-investigation, and slow requests are rare by definition.
  std::fflush(slow_file_);
}

void Server::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (running_.exchange(false)) {
    // Unblock poll() promptly; the accept loop also checks running_.
    ::shutdown(listen_fd_, SHUT_RDWR);
    accept_thread_.join();
  }
  std::map<std::uint64_t, std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(conn_threads_);
    ended_conns_.clear();
  }
  for (auto& [id, t] : threads) t.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_requested_.store(true, std::memory_order_release);
  }
  cv_stop_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_stop_.wait(lock,
                [this] { return stop_requested_.load(std::memory_order_acquire); });
}

ServerCounters Server::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::size_t Server::connection_threads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return conn_threads_.size();
}

void Server::accept_loop() {
  ServeMetrics& m = ServeMetrics::get();
  while (running_.load(std::memory_order_acquire)) {
    pollfd p{listen_fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, 200);
    if (r <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    join_ended_connections();
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    if (active_ >= opts_.max_connections) {
      write_frame(fd, error_frame("busy", "connection limit reached"));
      ::close(fd);
      ++counters_.rejected;
      m.rejected.add(1);
      continue;
    }
    const std::uint64_t id = next_conn_id_++;
    ++active_;
    ++counters_.connections;
    m.connections.add(1);
    m.active.set(static_cast<double>(active_));
    conn_fds_.push_back(fd);
    conn_threads_.emplace(
        id, std::thread([this, fd, id] { handle_connection(fd, id); }));
  }
}

void Server::join_ended_connections() {
  std::vector<std::thread> ended;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::uint64_t id : ended_conns_) {
      const auto it = conn_threads_.find(id);
      ended.push_back(std::move(it->second));
      conn_threads_.erase(it);
    }
    ended_conns_.clear();
  }
  // Outside the lock: an ended thread may still be releasing it.
  for (auto& t : ended) t.join();
}

void Server::handle_connection(int fd, std::uint64_t conn_id) {
  ServeMetrics& m = ServeMetrics::get();
  std::string payload;
  for (;;) {
    const FrameStatus st = read_frame(fd, payload, opts_.max_frame_bytes);
    if (st == FrameStatus::kClosed) break;
    if (st != FrameStatus::kOk) {
      // The stream position is unknowable after a framing error: answer
      // best-effort and drop the connection (payload errors, by
      // contrast, are clean frames and keep the session below).
      write_frame(fd, error_frame(frame_status_name(st),
                                  "framing error, closing connection"));
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.errors;
      m.errors.add(1);
      break;
    }

    bool shutdown_after = false;
    const std::string reply =
        handle_payload(payload, conn_id, &shutdown_after);
    const bool sent = write_frame(fd, reply);
    if (shutdown_after) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_requested_.store(true, std::memory_order_release);
      }
      cv_stop_.notify_all();
      break;
    }
    if (!sent) break;
  }

  ::close(fd);
  std::lock_guard<std::mutex> lock(mutex_);
  conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                  conn_fds_.end());
  ended_conns_.push_back(conn_id);
  --active_;
  m.active.set(static_cast<double>(active_));
}

std::string Server::handle_payload(const std::string& payload,
                                   std::uint64_t conn_id,
                                   bool* shutdown_after) {
  Answer a = answer(payload, *sched_, conn_id, /*metrics=*/false,
                    opts_.slow_us,
                    [this, shutdown_after](const runtime::JsonValue& ctl) {
                      return handle_control(ctl, shutdown_after);
                    });
  if (a.control) return std::move(a.reply);
  if (!a.slow_record.empty()) {
    ServeMetrics::get().slow.add(1);
    log_slow_request(a.slow_record);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (a.refused) {
    ++counters_.errors;
  } else {
    ++counters_.requests;
    if (a.failed > 0) ++counters_.errors;
    if (!a.slow_record.empty()) ++counters_.slow;
  }
  return std::move(a.reply);
}

std::string Server::handle_control(const runtime::JsonValue& request,
                                   bool* shutdown_after) {
  const std::string cmd = request.string_or("cmd", "");
  if (cmd != "ping" && cmd != "metrics" && cmd != "dump" &&
      cmd != "shutdown") {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.errors;
    ServeMetrics::get().errors.add(1);
    return error_frame("bad_ctl", "unknown ctl cmd '" + cmd + "'");
  }
  bench::JsonWriter w;
  w.begin_object();
  w.field("schema", kControlSchema);
  w.field("cmd", cmd);
  w.field("ok", true);
  if (cmd == "ping") {
    w.field("workers", sched_->workers());
    w.field("inflight", sched_->inflight());
  } else if (cmd == "metrics") {
    w.field("prometheus", obs::Registry::global().snapshot().to_prometheus());
  } else if (cmd == "dump") {
    // On-demand flight-recorder dump: the whole ring as one Chrome-trace
    // document (a ring of 4096 fixed-size events renders well under the
    // frame ceiling).
    const obs::FlightRecorder& fr = obs::FlightRecorder::global();
    w.field("events", fr.total_recorded());
    w.field("dropped", fr.dropped());
    w.field("chrome_trace", fr.chrome_trace_json());
  } else {
    *shutdown_after = true;
  }
  w.end_object();
  return w.str();
}

}  // namespace csdac::serve
