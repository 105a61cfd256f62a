#ifndef TREEDIFF_UTIL_METRICS_H_
#define TREEDIFF_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace treediff {

/// A monotonically increasing event count. Lock-free: one relaxed atomic
/// add per Increment, so counters sit on the service's hottest paths.
class Counter {
 public:
  void Increment(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// A fixed-bucket latency/size histogram. Buckets are exponential —
/// upper bounds 1e-6 * 2^i for i in [0, kBuckets), i.e. 1 microsecond up to
/// ~134 seconds when observations are in seconds — plus an overflow bucket.
/// Observe is lock-free (two relaxed atomic adds and a CAS loop for the
/// sum). The Prometheus exposition publishes the cumulative buckets;
/// quantiles are the scraper's to estimate.
class Histogram {
 public:
  static constexpr int kBuckets = 28;

  void Observe(double value);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const;

  /// Upper bound of bucket `i` (inclusive).
  static double BucketBound(int i);

  /// Observations in bucket `i` (i == kBuckets is the overflow bucket).
  /// Exposed for the Prometheus exposition, which needs cumulative
  /// per-bucket counts.
  uint64_t BucketCount(int i) const {
    return buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<uint64_t>, kBuckets + 1> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // double, stored via bit_cast CAS.
};

/// A named registry of counters and histograms — what the DiffService
/// exposes for scraping. Registration (counter()/histogram()) takes a lock
/// and is meant for startup; the returned pointers are stable for the
/// registry's lifetime, so steady-state recording is pure atomics on the
/// cached pointers ("lock-cheap": the lock is never on the request path).
class MetricsRegistry {
 public:
  /// The counter/histogram named `name`, created on first use.
  Counter* counter(const std::string& name) EXCLUDES(mu_);
  Histogram* histogram(const std::string& name) EXCLUDES(mu_);

  /// Prometheus text exposition format (version 0.0.4), the wire format a
  /// Prometheus scraper expects from the HTTP `/metrics` endpoint:
  ///
  ///   # HELP <base> <base>
  ///   # TYPE <base> counter
  ///   <name> <value>
  ///
  /// for counters, and for histograms the cumulative-bucket form
  ///
  ///   # TYPE <name> histogram
  ///   <name>_bucket{le="<bound>"} <cumulative count>
  ///   ...
  ///   <name>_bucket{le="+Inf"} <total>
  ///   <name>_sum <sum> / <name>_count <total>
  ///
  /// Registered names may already carry labels (`foo_total{k="v"}`); the
  /// base name for # HELP / # TYPE is everything before the '{', and the
  /// header lines are emitted once per base name.
  std::string PrometheusExposition() const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace treediff

#endif  // TREEDIFF_UTIL_METRICS_H_
