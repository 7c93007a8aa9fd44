// Hierarchical spans: RAII scoped timers with parent/child nesting and
// per-span string attributes. A thread-local stack tracks the current
// span, so a ScopedSpan constructed inside another automatically becomes
// its child; work handed to another thread nests by passing the parent's
// id() explicitly (see the thread-pool worker spans in mathx/parallel).
//
// Finished spans are pushed to every registered SpanSink — the server
// wires the flight recorder, and tools wire a SpanCollector to export a
// Chrome trace_event file (see obs/chrome_trace.hpp) that opens as a
// flamegraph in Perfetto or chrome://tracing. With no sinks registered a
// ScopedSpan is two relaxed atomic loads and a branch — cheap enough to
// leave instrumentation in production paths unconditionally (spans belong
// around waves, jobs, and batches, not around individual chip
// evaluations; counters cover those).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace csdac::obs {

/// Microseconds since the process trace epoch (first use; steady clock).
double trace_now_us() noexcept;

/// Small sequential id of the calling thread (0, 1, 2, ... in first-use
/// order) — compact track ids for trace exports.
std::uint32_t this_thread_trace_tid() noexcept;

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;      ///< unique, process-wide, never 0
  std::uint64_t parent = 0;  ///< 0 = root span
  int depth = 0;             ///< nesting depth on the emitting thread
  std::uint32_t tid = 0;     ///< this_thread_trace_tid() of the emitter
  double start_us = 0.0;     ///< trace_now_us() at construction
  double dur_us = 0.0;
  std::vector<std::pair<std::string, std::string>> attrs;
};

class SpanSink {
 public:
  virtual ~SpanSink() = default;
  /// Called once per finished span, possibly from many threads at once —
  /// but never concurrently for the same sink (the tracer serializes).
  virtual void on_span(const SpanRecord& span) = 0;
};

/// Process-wide span dispatcher. Sinks register/unregister at run scope
/// (a tool's main, a batch run); spans only pay their recording cost
/// while at least one sink is registered.
class Tracer {
 public:
  static Tracer& global();

  void add_sink(SpanSink* sink);
  void remove_sink(SpanSink* sink);

  bool active() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  /// Id of the calling thread's innermost open span (0 if none) — the
  /// handle for cross-thread parenting.
  static std::uint64_t current_span_id() noexcept;

  /// Dispatches a finished span to every sink (internal; ScopedSpan calls
  /// it). Serialized under the sink mutex.
  void emit(const SpanRecord& span);

 private:
  std::atomic<bool> active_{false};
  std::mutex mutex_;
  std::vector<SpanSink*> sinks_;
};

/// RAII span. Captures the parent from the calling thread's span stack
/// (or from an explicit parent id for cross-thread nesting), times the
/// scope, and emits on destruction. No-op (and allocation-free) when the
/// tracer has no sinks at construction time.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name);
  /// Cross-thread child: nests under `parent` regardless of what is on
  /// this thread's stack.
  ScopedSpan(std::string_view name, std::uint64_t parent);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// 0 when the span is inactive (no sinks at construction).
  std::uint64_t id() const noexcept { return live_ ? rec_.id : 0; }

  ScopedSpan& attr(std::string_view key, std::string_view value);
  ScopedSpan& attr(std::string_view key, const char* value) {
    return attr(key, std::string_view(value));
  }
  ScopedSpan& attr(std::string_view key, std::int64_t value);
  ScopedSpan& attr(std::string_view key, int value) {
    return attr(key, static_cast<std::int64_t>(value));
  }
  ScopedSpan& attr(std::string_view key, double value);

 private:
  void open(std::string_view name, std::uint64_t parent, bool use_stack);

  bool live_ = false;
  SpanRecord rec_;
};

/// Sink that buffers every span in memory; tools drain it into the Chrome
/// trace exporter after a run. Thread-safe.
class SpanCollector : public SpanSink {
 public:
  void on_span(const SpanRecord& span) override;
  std::vector<SpanRecord> take();  ///< drains the buffer
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

}  // namespace csdac::obs
