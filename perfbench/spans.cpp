// The traced run's span recorder: single-threaded (the layer probes run on
// the runner's main thread), kept in memory, written once at the end.
#include <chrono>
#include <fstream>

#include "bench_json.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Spans::Scope::Scope(Spans& s, const char* name) : s_(s.enabled ? &s : nullptr) {
  if (!s_) return;
  index_ = s_->records_.size();
  Record r;
  r.name = name;
  r.id = static_cast<std::int64_t>(index_) + 1;
  r.parent = s_->stack_.empty()
                 ? 0
                 : static_cast<std::int64_t>(s_->stack_.back()) + 1;
  s_->records_.push_back(std::move(r));
  s_->stack_.push_back(index_);
  s_->records_[index_].start_us = now_us();
}

Spans::Scope::~Scope() {
  if (!s_) return;
  s_->records_[index_].end_us = now_us();
  s_->stack_.pop_back();
}

std::vector<double> Spans::self_us(std::string_view name) const {
  // Children always follow their parent in records_, so one pass that
  // charges each span's duration to its parent yields every child sum.
  std::vector<double> child(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent > 0) {
      child[static_cast<std::size_t>(r.parent - 1)] += r.end_us - r.start_us;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (std::string_view(r.name) == name) {
      out.push_back(r.end_us - r.start_us - child[i]);
    }
  }
  return out;
}

bool Spans::write_chrome_trace(const std::string& path) const {
  csdac::bench::JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  const double t0 = records_.empty() ? 0.0 : records_.front().start_us;
  for (const Record& r : records_) {
    w.begin_object();
    w.field("name", r.name);
    w.field("ph", "X");
    w.field("pid", 1);
    w.field("tid", 1);
    w.field("ts", r.start_us - t0);
    w.field("dur", r.end_us - r.start_us);
    w.key("args").begin_object();
    w.field("id", r.id);
    w.field("parent", r.parent);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path, std::ios::binary);
  out << w.str();
  return static_cast<bool>(out);
}

}  // namespace perfbench
