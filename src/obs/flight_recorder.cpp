#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "obs/chrome_trace.hpp"

namespace csdac::obs {

namespace {

std::string_view padded_view(const char* data, std::size_t max) {
  std::size_t n = 0;
  while (n < max && data[n] != '\0') ++n;
  return {data, n};
}

void copy_padded(char* dst, std::size_t max, std::string_view src) {
  const std::size_t n = src.size() < max ? src.size() : max - 1;
  if (n > 0) std::memcpy(dst, src.data(), n);  // an empty view may be null
  // The struct is zero-initialized per record() call, but slots are
  // reused: pad explicitly so a shorter name never exposes a longer
  // predecessor's tail.
  std::memset(dst + n, 0, max - n);
}

}  // namespace

std::string_view flight_event_kind_name(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kRequest: return "request";
    case FlightEventKind::kSpan: return "span";
    case FlightEventKind::kError: return "error";
  }
  return "unknown";
}

std::string_view FlightEvent::name_view() const {
  return padded_view(name, kFlightNameBytes);
}

std::string_view FlightEvent::trace_view() const {
  return padded_view(trace, kFlightTraceBytes);
}

FlightRecorder::FlightRecorder(std::size_t capacity) {
  capacity_ = std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity);
  slots_ = std::make_unique<Slot[]>(capacity_);
}

FlightRecorder& FlightRecorder::global() {
  // Leaked like the metrics registry: events may be recorded from static
  // destructors of other translation units.
  static FlightRecorder* g = new FlightRecorder();
  return *g;
}

void FlightRecorder::record(FlightEventKind kind, std::string_view name,
                            std::string_view trace, double start_us,
                            double dur_us, std::int64_t arg) noexcept {
  FlightEvent ev;
  ev.kind = kind;
  ev.tid = this_thread_trace_tid();
  ev.start_us = start_us;
  ev.dur_us = dur_us;
  ev.arg = arg;
  copy_padded(ev.name, kFlightNameBytes, name);
  copy_padded(ev.trace, kFlightTraceBytes, trace);

  std::uint64_t words[kWords] = {};
  std::memcpy(words, &ev, sizeof(ev));

  const std::uint64_t i = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[i & (capacity_ - 1)];
  // The slot's previous occupant was sequence i - capacity (or nobody).
  // Claiming by CAS instead of a blind store means two writers a full
  // ring-generation apart can never interleave word stores: the lapped
  // one loses the CAS and drops its event.
  std::uint64_t expected =
      i >= capacity_ ? 2 * (i - capacity_) + 2 : std::uint64_t{0};
  if (!slot.seq.compare_exchange_strong(expected, 2 * i + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  for (std::size_t w = 0; w < kWords; ++w) {
    slot.words[w].store(words[w], std::memory_order_relaxed);
  }
  slot.seq.store(2 * i + 2, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> out;
  out.reserve(capacity_);
  for (std::size_t s = 0; s < capacity_; ++s) {
    const Slot& slot = slots_[s];
    const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 == 0 || (s1 & 1) != 0) continue;  // empty or mid-write
    std::uint64_t words[kWords];
    for (std::size_t w = 0; w < kWords; ++w) {
      words[w] = slot.words[w].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != s1) continue;  // torn
    FlightEvent ev;
    std::memcpy(&ev, words, sizeof(ev));
    out.push_back(ev);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.start_us < b.start_us;
            });
  return out;
}

std::string FlightRecorder::chrome_trace_json(
    const std::string& process_name) const {
  const std::vector<FlightEvent> events = snapshot();
  std::vector<SpanRecord> spans;
  spans.reserve(events.size());
  std::uint64_t synthetic_id = 1;
  for (const FlightEvent& ev : events) {
    SpanRecord s;
    s.name = std::string(ev.name_view());
    s.id = synthetic_id++;
    s.tid = ev.tid;
    s.start_us = ev.start_us;
    s.dur_us = ev.dur_us;
    s.attrs.emplace_back("kind",
                         std::string(flight_event_kind_name(ev.kind)));
    if (!ev.trace_view().empty()) {
      s.attrs.emplace_back("trace_id", std::string(ev.trace_view()));
    }
    if (ev.arg != 0) {
      s.attrs.emplace_back("arg", std::to_string(ev.arg));
    }
    spans.push_back(std::move(s));
  }
  return obs::chrome_trace_json(spans, process_name);
}

bool FlightRecorder::dump(const std::string& path,
                          const std::string& process_name) const {
  const std::string doc = chrome_trace_json(process_name);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

namespace {

/// Forwards every finished span into the global flight recorder,
/// extracting the trace_id attribute when the span carries one.
class FlightSpanSink : public SpanSink {
 public:
  void on_span(const SpanRecord& span) override {
    std::string_view trace;
    for (const auto& [k, v] : span.attrs) {
      if (k == "trace_id") {
        trace = v;
        break;
      }
    }
    FlightRecorder::global().record(
        FlightEventKind::kSpan, span.name, trace, span.start_us,
        span.dur_us, static_cast<std::int64_t>(span.parent));
  }
};

}  // namespace

void FlightRecorder::install_global_span_sink() {
  static std::once_flag once;
  std::call_once(once, [] {
    static FlightSpanSink* sink = new FlightSpanSink();
    Tracer::global().add_sink(sink);
  });
}

}  // namespace csdac::obs
