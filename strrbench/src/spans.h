// In-memory span recording for the benchmark's traced run.
//
// The benchmark wraps its own calls into each strr layer (planner, bound
// search, probability oracle, TBS) in spans; nothing inside the library is
// instrumented. Spans stay in memory while the run measures and are
// written out once at exit, in the same Chrome trace-event JSON shape as
// ReachabilityEngine::DumpTrace (loadable in chrome://tracing or Perfetto),
// together with a per-layer self-time table.
#ifndef STRRBENCH_SPANS_H_
#define STRRBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace strrbench {

/// One completed span. `name` must be a string literal (stored unowned).
struct Span {
  const char* name = nullptr;
  uint64_t query_id = 0;  ///< spans of one query share this id
  uint32_t tid = 0;       ///< client thread index
  uint16_t depth = 0;     ///< 0 = query root; children are depth + 1
  int64_t start_us = 0;   ///< steady-clock µs since the recorder's epoch
  int64_t dur_us = 0;
  uint64_t arg = 0;       ///< optional payload (e.g. region size)
};

/// Per-layer aggregate: `self_ms` is the span time not covered by its
/// direct children.
struct SelfTimeRow {
  std::string name;
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Thread-safe span sink. Clients fill a local vector per query and hand
/// it over in one Append, so the lock is taken once per query.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  /// Microseconds since the recorder was created.
  int64_t NowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - epoch_)
        .count();
  }

  /// Moves `spans` into the recorder (leaves `spans` empty).
  void Append(std::vector<Span>* spans);

  std::vector<Span> Snapshot() const;

  /// Chrome trace-event JSON ({"traceEvents": [...]}, "X" events).
  std::string ChromeTraceJson() const;

  /// Per-name totals and self times, in first-seen order.
  std::vector<SelfTimeRow> SelfTimes() const;

  /// SelfTimes() as an aligned text table (one row per span name, with
  /// mean self time per occurrence and share of all root time).
  std::string SelfTimeTable() const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Times one call into a layer and appends the span to `out` when it ends.
class ScopedSpan {
 public:
  ScopedSpan(const SpanRecorder& clock, std::vector<Span>* out,
             const char* name, uint64_t query_id, uint32_t tid,
             uint16_t depth)
      : clock_(clock), out_(out) {
    span_.name = name;
    span_.query_id = query_id;
    span_.tid = tid;
    span_.depth = depth;
    span_.start_us = clock.NowUs();
  }
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_arg(uint64_t arg) { span_.arg = arg; }

  /// Closes the span early; returns its duration in microseconds.
  int64_t End() {
    if (out_ != nullptr) {
      span_.dur_us = clock_.NowUs() - span_.start_us;
      out_->push_back(span_);
      out_ = nullptr;
    }
    return span_.dur_us;
  }

 private:
  const SpanRecorder& clock_;
  std::vector<Span>* out_;
  Span span_;
};

}  // namespace strrbench

#endif  // STRRBENCH_SPANS_H_
