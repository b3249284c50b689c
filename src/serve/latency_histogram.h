// Log-bucketed latency histogram for the serving stats: O(1) lock-free
// Record() into power-of-two nanosecond buckets, quantile estimation from a
// merged snapshot. Each engine scoring slot owns one histogram (no sharing
// on the hot path); /statz merges the per-slot histograms on demand.

#ifndef SMPTREE_SERVE_LATENCY_HISTOGRAM_H_
#define SMPTREE_SERVE_LATENCY_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace smptree {

class LatencyHistogram {
 public:
  /// Bucket b holds samples in [2^b, 2^(b+1)) nanoseconds; bucket 0 also
  /// absorbs sub-nanosecond samples, the last bucket absorbs overflow
  /// (bucket 63 would be ~292 years, so overflow cannot happen in practice).
  static constexpr int kBuckets = 64;

  /// Records one latency sample. Safe to call concurrently with Merge /
  /// snapshot readers (relaxed atomics; monitoring tolerates small skew).
  void Record(uint64_t nanos) {
    buckets_[BucketFor(nanos)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    total_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  }

  /// Adds `other`'s counts into this histogram (for the merged snapshot).
  void Merge(const LatencyHistogram& other) {
    for (int b = 0; b < kBuckets; ++b) {
      buckets_[b].fetch_add(
          other.buckets_[b].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    total_nanos_.fetch_add(other.total_nanos_.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Samples in bucket `b`, i.e. values in [2^b, 2^(b+1)) (monitoring
  /// snapshot; relaxed, like the rest of the read surface). The value unit
  /// is whatever the caller Records -- nanoseconds for latencies, tuple
  /// counts for the engine's batch-size histogram.
  uint64_t bucket_count(int b) const {
    return buckets_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
  }

  double mean_nanos() const {
    const uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(
                        total_nanos_.load(std::memory_order_relaxed)) /
                        static_cast<double>(n);
  }

  /// Latency (ns) below which fraction `q` in (0,1] of samples fall,
  /// estimated as the upper edge of the bucket containing that rank.
  uint64_t QuantileNanos(double q) const;

  /// Fixed-width console rendering of the non-empty buckets (loadgen
  /// output): one line per bucket with a proportional bar.
  std::string ToAscii() const;

 private:
  static int BucketFor(uint64_t nanos) {
    if (nanos == 0) return 0;
    return 63 - __builtin_clzll(nanos);  // floor(log2): bucket 0 holds 0..1ns
  }

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> total_nanos_{0};
};

}  // namespace smptree

#endif  // SMPTREE_SERVE_LATENCY_HISTOGRAM_H_
