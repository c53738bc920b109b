// MetricsRegistry: zero-dependency named counters, gauges and log-linear
// histograms with a Prometheus / JSON export surface.
//
// Design targets (see ISSUE 8):
//  * Off by default and free when off — every metric holds a pointer to
//    its registry's enabled flag; a disabled Add()/Record() is one relaxed
//    atomic load and a branch. Nothing in the query path changes shape
//    when metrics are off, so results stay bit-identical.
//  * Cheap when on — counters and histogram bucket arrays are sharded
//    across a small fixed set of cache-line-padded slots indexed by a
//    per-thread id, updated with relaxed atomics: the hot path pays one
//    uncontended cache-line bump. Shards are merged on scrape, never on
//    the write path.
//  * Percentiles without samples — histograms bucket values (callers
//    record microseconds by convention) into exact unit buckets below 32
//    and log-linear buckets (8 sub-buckets per power of two, ~12.5% worst
//    case relative width) above; p50/p90/p99/p999 come from cumulative
//    bucket interpolation at scrape time.
//
// Instrumentation sites cache the metric handle once:
//
//   static obs::Counter& hits =
//       obs::MetricsRegistry::Global().GetCounter("strr_cache_hits_total");
//   hits.Add();
//
// Handles returned by Get*() are stable for the registry's lifetime (the
// registry never erases a metric), so cached references across threads are
// safe. Names must match Prometheus conventions ([a-zA-Z_:][a-zA-Z0-9_:]*);
// the registry asserts this in debug builds and exports names verbatim.
#ifndef STRR_OBS_METRICS_H_
#define STRR_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace strr::obs {

namespace internal {

/// Stable small integer id for the calling thread, assigned on first use.
/// Used to pick a metric shard; ids are never recycled, so long-lived
/// servers that churn threads still distribute (id % shards) evenly.
uint32_t ThreadIndex();

constexpr size_t kShards = 8;  // power of two; indexed by ThreadIndex()

struct alignas(64) PaddedAtomicU64 {
  std::atomic<uint64_t> value{0};
};

}  // namespace internal

/// Monotonic counter. Add() is a no-op while the owning registry is
/// disabled.
class Counter {
 public:
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    shards_[internal::ThreadIndex() % internal::kShards].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Merged value across shards (scrape path).
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  const std::atomic<bool>* enabled_;
  std::array<internal::PaddedAtomicU64, internal::kShards> shards_;
};

/// Last-writer-wins gauge with an additive mode for resource levels
/// (queue depths) that multiple threads raise and lower concurrently.
/// Stored as a signed 64-bit integer (gauge semantics here are counts,
/// versions and milliseconds — never fractional).
class Gauge {
 public:
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }

  void Add(int64_t delta) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  const std::atomic<bool>* enabled_;
  std::atomic<int64_t> value_{0};
};

/// Log-linear-bucket histogram of non-negative integer samples (callers
/// record latencies in microseconds and sizes in bytes by convention).
///
/// Bucket layout: values below kLinearMax land in exact unit buckets;
/// above that, each power of two is split into kSubBuckets sub-buckets
/// (relative width 1/kSubBuckets), up to an overflow bucket past
/// 2^kMaxPow2. Percentile(q) merges the shards, walks the cumulative
/// distribution and interpolates linearly inside the target bucket.
class Histogram {
 public:
  static constexpr uint64_t kLinearMax = 32;    // exact buckets [0, 32)
  static constexpr int kSubBits = 3;            // 8 sub-buckets per octave
  static constexpr int kMaxPow2 = 40;           // ~12.7 days in microseconds
  static constexpr size_t kNumBuckets =
      kLinearMax + static_cast<size_t>(kMaxPow2 - 5) * (1u << kSubBits) + 1;

  explicit Histogram(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    Shard& s = shards_[internal::ThreadIndex() % internal::kShards];
    s.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
  }

  uint64_t Count() const;
  uint64_t Sum() const;

  /// Interpolated percentile of the recorded distribution, q in [0, 1].
  /// Exact for values below kLinearMax (up to sub-unit interpolation),
  /// within one sub-bucket's width (~12.5%) above. Returns 0 on an empty
  /// histogram.
  double Percentile(double q) const;

  /// Merged bucket counts (index -> count), plus count/sum, in one pass —
  /// the export and percentile substrate.
  struct Snapshot {
    std::array<uint64_t, kNumBuckets> buckets{};
    uint64_t count = 0;
    uint64_t sum = 0;
  };
  Snapshot Snap() const;

  void Reset();

  /// Bucket index for a value (exposed for tests).
  static size_t BucketIndex(uint64_t value);
  /// Inclusive lower / exclusive upper bound of a bucket. The overflow
  /// bucket's upper bound is reported as its lower bound (open-ended).
  static uint64_t BucketLowerBound(size_t index);
  static uint64_t BucketUpperBound(size_t index);

  /// Interpolated percentile over an arbitrary snapshot (used by
  /// Percentile() and by callers holding a pre-merged Snapshot).
  static double PercentileOf(const Snapshot& snap, double q);

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
  };

  const std::atomic<bool>* enabled_;
  std::array<Shard, internal::kShards> shards_;
};

/// Named metric registry. Get*() registers on first use and returns a
/// stable reference; DumpPrometheus / DumpJson merge the shards and
/// render. Thread-safe throughout.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = false) : enabled_(enabled) {}

  /// The process-global registry every built-in instrumentation site
  /// reports to. Disabled until an engine is built with
  /// EngineOptions::metrics (or a caller flips set_enabled).
  static MetricsRegistry& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// One label dimension per series: (key, value) pairs rendered into the
  /// canonical `{k="v",...}` suffix (keys sorted, so any call-site order
  /// maps to one series). Labeled and unlabeled series of the same base
  /// name coexist; the exporters emit one `# TYPE` line per base name and
  /// splice histogram `le` labels into the series' own label set. Handles
  /// are stable exactly like the unlabeled ones; hot sites cache the
  /// handle per label value instead of re-rendering the suffix.
  using Labels = std::vector<std::pair<std::string, std::string>>;
  Counter& GetCounter(const std::string& name, const Labels& labels);
  Gauge& GetGauge(const std::string& name, const Labels& labels);
  Histogram& GetHistogram(const std::string& name, const Labels& labels);

  /// The canonical label suffix (`{k="v",...}`, keys sorted); "" for no
  /// labels. Exposed for tests and for callers pre-building series names.
  static std::string CanonicalLabels(const Labels& labels);

  /// Appends the full registry in Prometheus text exposition format
  /// (counters as `# TYPE x counter`, histograms as cumulative
  /// `x_bucket{le="..."}` series with `x_sum` / `x_count`). Only buckets
  /// that change the cumulative count are emitted, plus `+Inf`, so the
  /// exposition stays compact; any Prometheus scraper accepts sparse
  /// boundaries. Honors the STRR_OBS_SCRAPE_SLEEP_MS test hook (injected
  /// scrape latency for the CI overhead gate's negative test).
  void DumpPrometheus(std::string* out) const;

  /// Appends a JSON object: counters/gauges by value, histograms as
  /// {count, sum, p50, p90, p99, p999}.
  void DumpJson(std::string* out) const;

  /// Zeroes every registered metric's value. Handles stay valid (tests
  /// and the bench overhead mode share Global() with cached static
  /// references at the instrumentation sites).
  void ResetValues();

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mu_;
  // std::map: deterministic (sorted) export order, stable addresses via
  // unique_ptr values.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace strr::obs

#endif  // STRR_OBS_METRICS_H_
