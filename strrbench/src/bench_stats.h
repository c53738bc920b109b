// Order statistics for the benchmark's latency metrics.
//
// Percentiles use the nearest-rank rule on a sorted sample: the p-th
// percentile of n values is the ceil(p * n)-th smallest. A tail percentile
// is only reported where at least kMinTailSamples samples lie beyond it
// (the "percentile rule"): p99 needs n >= 1000, p95 n >= 200, p90 n >= 100.
#ifndef STRRBENCH_BENCH_STATS_H_
#define STRRBENCH_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace strrbench {

inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile (p in (0, 1]) of an ascending-sorted sample;
/// 0 for an empty sample.
inline double SortedPercentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  // The small epsilon keeps p * n from rounding up past an exact rank
  // (0.99 * 1000 is 990.0000000000001 in binary floating point).
  double rank = std::ceil(p * static_cast<double>(sorted.size()) - 1e-9);
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

/// Number of samples strictly beyond the nearest-rank p-th percentile.
inline size_t SamplesBeyond(size_t n, double p) {
  double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  size_t at = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  return n > at ? n - at : 0;
}

/// The highest percentile from `ladder` (descending) that keeps at least
/// kMinTailSamples samples beyond it for a sample of `n`; 0.5 when even
/// the lowest rung does not (the median is always reportable).
inline double HighestSupportedPercentile(
    size_t n, const std::vector<double>& ladder = {0.999, 0.99, 0.95, 0.9}) {
  for (double p : ladder) {
    if (SamplesBeyond(n, p) >= kMinTailSamples) return p;
  }
  return 0.5;
}

/// Sorts a copy of `values` ascending.
inline std::vector<double> Sorted(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values;
}

/// Median (nearest-rank p50) of an unsorted sample.
inline double Median(std::vector<double> values) {
  return SortedPercentile(Sorted(std::move(values)), 0.5);
}

}  // namespace strrbench

#endif  // STRRBENCH_BENCH_STATS_H_
