// Closed-loop replay against the server, reply checking, and the
// in-process references the replies are checked against.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench_json.hpp"
#include "perfbench.hpp"
#include "serve/client.hpp"
#include "serve/request.hpp"
#include "serve/response.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// One past the JSON object or array that opens at s[i], or npos.
std::size_t close_of(std::string_view s, std::size_t i) {
  int depth = 0;
  bool in_str = false;
  for (; i < s.size(); ++i) {
    const char c = s[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') {
      in_str = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth == 0) return i + 1;
    }
  }
  return std::string_view::npos;
}

/// Number following `key` in `s`, or -1.
double field_after(std::string_view s, std::string_view key) {
  const auto p = s.find(key);
  if (p == std::string_view::npos) return -1.0;
  return std::strtod(s.data() + p + key.size(), nullptr);
}

/// Bytes emit_result writes for `value`, without the "result": key.
std::string result_bytes(const csdac::runtime::JobValue& value) {
  csdac::bench::JsonWriter jw;
  jw.begin_object();
  csdac::serve::emit_result(jw, value);
  jw.end_object();
  const std::string& s = jw.str();  // {"result":{...}}
  constexpr std::size_t kPrefix = sizeof("{\"result\":") - 1;
  return s.substr(kPrefix, s.size() - kPrefix - 1);
}

struct Checker {
  const Workload& w;
  const std::vector<std::string>& expected;

  void fail(ReplayStats& log, std::string msg) const {
    ++log.failed;
    if (log.errors.size() < 8) log.errors.push_back(std::move(msg));
  }

  /// Checks one reply; records results of sampled fresh ids. Returns
  /// false (and counts one failure) on the first violation.
  bool check(std::string_view reply, const std::string& trace,
             const std::vector<std::int64_t>& ids, ReplayStats& log) const {
    const std::string head =
        R"({"schema":"csdac-serve/4","trace_id":")" + trace + R"(","jobs":[)";
    if (reply.compare(0, head.size(), head) != 0) {
      fail(log, "reply without trace id " + trace + ": " +
                    std::string(reply.substr(0, 160)));
      return false;
    }
    std::size_t pos = head.size();
    std::vector<double> store;
    double stage_sum = 0.0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i > 0) {
        if (pos >= reply.size() || reply[pos] != ',') break;
        ++pos;
      }
      const std::size_t end = pos < reply.size() && reply[pos] == '{'
                                  ? close_of(reply, pos)
                                  : std::string_view::npos;
      if (end == std::string_view::npos) break;
      const std::string_view job = reply.substr(pos, end - pos);
      pos = end;
      const auto r = job.find("\"result\":");
      const std::size_t rend =
          r == std::string_view::npos ? r : close_of(job, r + 9);
      if (rend == std::string_view::npos) {
        fail(log, trace + ": job " + std::to_string(ids[i]) + " failed: " +
                      std::string(job.substr(0, 200)));
        return false;
      }
      const std::string_view result = job.substr(r + 9, rend - r - 9);
      const std::int64_t id = ids[i];
      if (id < static_cast<std::int64_t>(expected.size())) {
        if (result != expected[static_cast<std::size_t>(id)]) {
          fail(log, trace + ": job " + std::to_string(id) +
                        " result differs from the reference");
          return false;
        }
      } else if (w.sampled(id)) {
        const auto [it, fresh] = log.fresh_results.try_emplace(id, result);
        if (!fresh && it->second != result) {
          fail(log, trace + ": job " + std::to_string(id) +
                        " answered two different results");
          return false;
        }
      }
      stage_sum += field_after(job, "\"total_us\":");
      if (job.find(R"("cache":"miss")") != std::string_view::npos) {
        store.push_back(field_after(job, "\"store_us\":"));
      }
    }
    if (pos >= reply.size() || reply[pos] != ']') {
      fail(log, trace + ": reply does not hold " +
                    std::to_string(ids.size()) + " job results");
      return false;
    }
    log.stage_sum_us.push_back(stage_sum);
    log.store_us.insert(log.store_us.end(), store.begin(), store.end());
    log.reply_bytes += static_cast<double>(reply.size());
    return true;
  }
};

/// Runs the workload's clients closed-loop. next(client, n, ids) fills the
/// ids of the client's n-th request and returns false when it has no more;
/// clients also stop sending once `seconds` have passed.
ReplayStats run_clients(
    const Workload& w, int port, const std::vector<std::string>& expected,
    const std::string& tag,
    const std::function<bool(int, std::int64_t, std::vector<std::int64_t>&)>&
        next,
    double seconds) {
  const std::size_t clients = static_cast<std::size_t>(w.clients);
  std::vector<ReplayStats> logs(clients);
  std::vector<Clock::time_point> ends(clients);
  std::vector<csdac::serve::Client> conns(clients);
  for (auto& c : conns) {
    std::string err;
    if (!c.connect("127.0.0.1", port, &err)) throw std::runtime_error(err);
  }
  const Checker checker{w, expected};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < w.clients; ++c) {
    threads.emplace_back([&, c] {
      ReplayStats& log = logs[static_cast<std::size_t>(c)];
      csdac::serve::Client& conn = conns[static_cast<std::size_t>(c)];
      std::vector<std::int64_t> ids;
      std::string reply;
      for (std::int64_t n = 0; Clock::now() < deadline; ++n) {
        ids.clear();
        if (!next(c, n, ids)) break;
        const std::string trace =
            tag + "-" + std::to_string(c) + "-" + std::to_string(n);
        const std::string text = request_text(w, ids, trace);
        ++log.attempted;
        const Clock::time_point t0 = Clock::now();
        const auto st = conn.call(text, reply);
        const Clock::time_point t1 = Clock::now();
        if (st != csdac::serve::FrameStatus::kOk) {
          checker.fail(log, trace + ": " + std::string(
                                  csdac::serve::frame_status_name(st)));
          break;  // the connection is unusable after a framing failure
        }
        if (!checker.check(reply, trace, ids, log)) continue;
        ++log.ok;
        log.jobs += static_cast<std::int64_t>(ids.size());
        log.latency_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
      ends[static_cast<std::size_t>(c)] = Clock::now();
    });
  }
  for (auto& t : threads) t.join();

  ReplayStats out;
  for (ReplayStats& log : logs) merge(out, std::move(log));
  out.wall_s = std::chrono::duration<double>(
                   *std::max_element(ends.begin(), ends.end()) - start)
                   .count();
  return out;
}

}  // namespace

std::vector<Cursor> make_cursors(const Workload& w, std::uint64_t seed) {
  std::vector<Cursor> cursors;
  for (int c = 0; c < w.clients; ++c) {
    cursors.emplace_back(mix(seed, 1000 + static_cast<std::uint64_t>(c)));
  }
  return cursors;
}

void merge(ReplayStats& into, ReplayStats&& from) {
  into.attempted += from.attempted;
  into.ok += from.ok;
  into.jobs += from.jobs;
  into.failed += from.failed;
  into.reply_bytes += from.reply_bytes;
  const auto append = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  append(into.latency_us, from.latency_us);
  append(into.stage_sum_us, from.stage_sum_us);
  append(into.store_us, from.store_us);
  for (auto& e : from.errors) {
    if (into.errors.size() < 8) into.errors.push_back(std::move(e));
  }
  for (auto& [id, result] : from.fresh_results) {
    const auto [it, fresh] = into.fresh_results.try_emplace(id, result);
    if (!fresh && it->second != result) {
      ++into.failed;
      if (into.errors.size() < 8) {
        into.errors.push_back("job " + std::to_string(id) +
                              " answered two different results");
      }
    }
  }
}

ReplayStats replay(const Workload& w, std::vector<Cursor>& cursors, int port,
                   const std::vector<std::string>& expected, double seconds) {
  return run_clients(
      w, port, expected, "pb",
      [&](int c, std::int64_t, std::vector<std::int64_t>& ids) {
        Cursor& cur = cursors[static_cast<std::size_t>(c)];
        w.next(c, cur, ids);
        ++cur.n;
        return true;
      },
      seconds);
}

ReplayStats prefill(const Workload& w, int port,
                    const std::vector<std::string>& expected) {
  constexpr std::int64_t kJobsPerRequest = 4;
  const std::int64_t pool = static_cast<std::int64_t>(w.pool.size());
  const int clients = w.clients;
  return run_clients(
      w, port, expected, "fill",
      [&](int c, std::int64_t n, std::vector<std::int64_t>& ids) {
        // Client c sends ids c, c + clients, ... in kJobsPerRequest chunks.
        for (std::int64_t k = 0; k < kJobsPerRequest; ++k) {
          const std::int64_t id = c + (n * kJobsPerRequest + k) * clients;
          if (id < pool) ids.push_back(id);
        }
        return !ids.empty();
      },
      1e9);
}

std::vector<Reference> compute_references(const std::vector<std::string>& jsons,
                                          int threads) {
  std::vector<Reference> refs(jsons.size());
  std::atomic<std::size_t> next{0};
  std::mutex err_mutex;
  std::string error;
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < jsons.size();) {
        try {
          csdac::runtime::JsonValue v;
          std::string err;
          if (!csdac::runtime::parse_json(jsons[i], v, &err)) {
            throw std::runtime_error(err);
          }
          Reference& r = refs[i];
          r.job = csdac::serve::parse_job(v);
          r.value = csdac::runtime::execute_job(r.job, 1, nullptr);
          r.result = result_bytes(r.value);
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(err_mutex);
          error = "reference for " + jsons[i] + ": " + e.what();
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  if (!error.empty()) throw std::runtime_error(error);
  return refs;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

}  // namespace perfbench
