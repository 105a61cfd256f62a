#include "util/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

namespace treediff {
namespace {

TEST(CounterTest, CountsAcrossThreads) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), 80000u);
}

TEST(HistogramTest, CountSumMean) {
  Histogram h;
  h.Observe(1.0);
  h.Observe(2.0);
  h.Observe(3.0);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_DOUBLE_EQ(h.Sum(), 6.0);
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0.0);
}

TEST(HistogramTest, OverflowReportsTopBound) {
  Histogram h;
  h.Observe(1e12);  // Way past the last bucket.
  EXPECT_EQ(h.BucketCount(Histogram::kBuckets), 1u);
  EXPECT_EQ(h.Count(), 1u);
}

TEST(HistogramTest, ConcurrentObserveLosesNothing) {
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 5000; ++i) h.Observe(0.001);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Count(), 40000u);
  // The CAS-loop sum is exact for identical addends well inside the
  // double mantissa.
  EXPECT_NEAR(h.Sum(), 40.0, 1e-9);
}

TEST(MetricsRegistryTest, SameNameSameInstance) {
  MetricsRegistry registry;
  Counter* a = registry.counter("requests_total");
  Counter* b = registry.counter("requests_total");
  EXPECT_EQ(a, b);
  a->Increment(7);
  EXPECT_EQ(b->Value(), 7u);
  EXPECT_NE(static_cast<void*>(registry.histogram("x")),
            static_cast<void*>(registry.histogram("y")));
}

TEST(MetricsRegistryTest, PrometheusCountersWithSharedHeaders) {
  MetricsRegistry registry;
  registry.counter("req_total{tenant=\"a\"}")->Increment(1);
  registry.counter("req_total{tenant=\"b\"}")->Increment(2);
  registry.counter("up_total")->Increment(5);
  const std::string text = registry.PrometheusExposition();

  // One # HELP / # TYPE pair per BASE name: the two labeled series share
  // a single header, emitted before the first of them.
  EXPECT_NE(text.find("# HELP req_total"), std::string::npos);
  const size_t first_type = text.find("# TYPE req_total counter");
  ASSERT_NE(first_type, std::string::npos);
  EXPECT_EQ(text.find("# TYPE req_total counter", first_type + 1),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE up_total counter"), std::string::npos);

  EXPECT_NE(text.find("req_total{tenant=\"a\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("req_total{tenant=\"b\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("up_total 5\n"), std::string::npos);
  EXPECT_LT(first_type, text.find("req_total{tenant=\"a\"}"));
}

TEST(MetricsRegistryTest, PrometheusHistogramCumulativeBuckets) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat_seconds");
  h->Observe(0.0005);
  h->Observe(0.5);
  h->Observe(0.5);
  const std::string text = registry.PrometheusExposition();

  EXPECT_NE(text.find("# TYPE lat_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_sum 1.0005\n"), std::string::npos);

  // Bucket counts must be CUMULATIVE and non-decreasing, ending at _count.
  uint64_t previous = 0;
  size_t buckets_seen = 0;
  size_t at = 0;
  const std::string prefix = "lat_seconds_bucket{le=\"";
  while ((at = text.find(prefix, at)) != std::string::npos) {
    const size_t space = text.find(' ', at);
    ASSERT_NE(space, std::string::npos);
    const uint64_t value = std::stoull(text.substr(space + 1));
    EXPECT_GE(value, previous);
    previous = value;
    ++buckets_seen;
    at = space;
  }
  EXPECT_EQ(buckets_seen, static_cast<size_t>(Histogram::kBuckets) + 1);
  EXPECT_EQ(previous, 3u);  // The +Inf bucket equals the total count.
}

TEST(MetricsRegistryTest, PrometheusEmptyHistogramIsWellFormed) {
  MetricsRegistry registry;
  registry.histogram("idle_seconds");
  const std::string text = registry.PrometheusExposition();
  EXPECT_NE(text.find("idle_seconds_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("idle_seconds_count 0\n"), std::string::npos);
  EXPECT_NE(text.find("idle_seconds_sum 0\n"), std::string::npos);
}

}  // namespace
}  // namespace treediff
