#include "util/metrics.h"

#include <bit>
#include <cmath>
#include <cstdio>

namespace treediff {

namespace {

constexpr double kFirstBound = 1e-6;

/// Relaxed double accumulation over an atomic<uint64_t> bit pattern.
void AddDouble(std::atomic<uint64_t>* bits, double delta) {
  uint64_t old_bits = bits->load(std::memory_order_relaxed);
  for (;;) {
    const double updated = std::bit_cast<double>(old_bits) + delta;
    if (bits->compare_exchange_weak(old_bits, std::bit_cast<uint64_t>(updated),
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace

double Histogram::BucketBound(int i) {
  return kFirstBound * std::ldexp(1.0, i);
}

void Histogram::Observe(double value) {
  int bucket = kBuckets;  // Overflow unless a bound fits.
  for (int i = 0; i < kBuckets; ++i) {
    if (value <= BucketBound(i)) {
      bucket = i;
      break;
    }
  }
  buckets_[static_cast<size_t>(bucket)].fetch_add(1,
                                                  std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AddDouble(&sum_bits_, value);
}

double Histogram::Sum() const {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

namespace {

/// "foo_total{tenant=\"x\"}" -> "foo_total"; label-free names pass through.
std::string BaseName(const std::string& name) {
  const size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

void AppendHeader(std::string* out, const std::string& base,
                  const char* type, std::string* last_base) {
  if (base == *last_base) return;  // One header per metric family.
  *last_base = base;
  out->append("# HELP ").append(base).append(" ").append(base).append("\n");
  out->append("# TYPE ").append(base).append(" ").append(type).append("\n");
}

}  // namespace

std::string MetricsRegistry::PrometheusExposition() const {
  MutexLock lock(&mu_);
  std::string out;
  char line[192];
  std::string last_base;
  for (const auto& [name, c] : counters_) {
    AppendHeader(&out, BaseName(name), "counter", &last_base);
    (void)std::snprintf(line, sizeof line, "%s %llu\n", name.c_str(),
                        static_cast<unsigned long long>(c->Value()));
    out += line;
  }
  for (const auto& [name, h] : histograms_) {
    AppendHeader(&out, BaseName(name), "histogram", &last_base);
    uint64_t cumulative = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      cumulative += h->BucketCount(i);
      (void)std::snprintf(line, sizeof line, "%s_bucket{le=\"%.9g\"} %llu\n",
                          name.c_str(), Histogram::BucketBound(i),
                          static_cast<unsigned long long>(cumulative));
      out += line;
    }
    (void)std::snprintf(line, sizeof line, "%s_bucket{le=\"+Inf\"} %llu\n",
                        name.c_str(),
                        static_cast<unsigned long long>(h->Count()));
    out += line;
    (void)std::snprintf(line, sizeof line, "%s_sum %.9g\n", name.c_str(),
                        h->Sum());
    out += line;
    (void)std::snprintf(line, sizeof line, "%s_count %llu\n", name.c_str(),
                        static_cast<unsigned long long>(h->Count()));
    out += line;
  }
  return out;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

}  // namespace treediff
