// Lock-free metric primitives: counters, gauges, log-linear histograms.
//
// These are the storage cells components own directly (one per shard, per
// runtime, per transport); the Registry never stores values itself, it only
// gathers snapshots at scrape time. Everything here is a relaxed atomic —
// safe to bump from any thread, including inside simulated-enclave hot
// paths, without taking a lock or fencing the caller.
//
// The histogram uses log-linear buckets (HdrHistogram-style: 2^kSubBits
// linear sub-buckets per power-of-two octave), which buys three properties
// the latency-summary use case needs:
//
//   * bounded relative error (<= 1/2^kSubBits, ~6%) at every magnitude from
//     1 ns to ~18 minutes;
//   * O(1) record with no allocation;
//   * EXACT mergeability: bucket assignment is a pure function of the
//     value, so merging per-thread or per-shard histograms bucket-wise
//     yields bit-identical counts/sums to having recorded everything into
//     one histogram (property-tested in tests/telemetry_test.cc).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

namespace speed::telemetry {

/// Monotonic counter.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Up/down gauge (bytes in use, queue depth, nodes up).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::int64_t n) { v_.fetch_sub(n, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Point-in-time copy of a histogram; mergeable and queryable.
struct HistogramSnapshot {
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  /// Bucket-wise addition; exact (see header comment).
  void merge(const HistogramSnapshot& other);

  /// Upper bound of the bucket containing the q-quantile observation
  /// (clamped to the recorded max). q in [0, 1]; returns 0 when empty.
  std::uint64_t quantile(double q) const;

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Lock-free log-linear histogram of non-negative integer observations
/// (latencies in nanoseconds, sizes in bytes).
class Histogram {
 public:
  static constexpr int kSubBits = 4;            ///< 16 sub-buckets per octave
  static constexpr std::uint64_t kSub = 1ull << kSubBits;
  static constexpr int kOctaves = 36;           ///< covers up to 2^40 (~18 min in ns)
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kOctaves + 1) * kSub;

  /// Deterministic bucket for a value (the merge-exactness anchor).
  static std::size_t bucket_index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = std::bit_width(v) - kSubBits;
    if (e > kOctaves) return kBuckets - 1;
    const std::uint64_t sub = (v >> (e - 1)) - kSub;
    return static_cast<std::size_t>(e) * kSub + static_cast<std::size_t>(sub);
  }

  /// Largest value mapping to bucket `i` (quantile read-out point).
  static std::uint64_t bucket_upper_bound(std::size_t i) {
    if (i < kSub) return i;
    const std::uint64_t e = i / kSub;
    const std::uint64_t sub = i % kSub;
    const std::uint64_t lower = (kSub + sub) << (e - 1);
    return lower + ((1ull << (e - 1)) - 1);
  }

  void record(std::uint64_t v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace speed::telemetry
