// Engine metrics surface: named counters, gauges, and latency histograms
// with percentile readout. One MetricsRegistry lives on each Session and
// is fed by the query path (query latency, plan-cache hits/misses,
// replans, collection elements built); the `METRICS;` statement and the shell's
// `.metrics` dump it, and bench_util exports the latency percentiles into
// BENCH_*.json.
//
// Thread-safety: every instrument is a fixed set of relaxed atomics, and
// the registry guards its name maps with a mutex — only map *mutation*
// takes the lock; the references handed out stay valid forever because
// std::map nodes never move. Concurrent Record/Inc calls never corrupt a
// metric (each field is individually atomic); a Dump racing a writer may
// observe a histogram whose count and sum are from adjacent instants,
// which is the usual monitoring-surface contract. Single-threaded use is
// bit-identical to the pre-atomic implementation.

#ifndef PASCALR_OBS_METRICS_H_
#define PASCALR_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "base/mutex.h"
#include "base/thread_annotations.h"

namespace pascalr {

class Counter {
 public:
  // Relaxed throughout: a metric value is a pure tally — no reader infers
  // the state of other memory from it, so no ordering is needed.
  void Inc(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  // Relaxed: last-writer-wins monitoring value, read in isolation.
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log-bucketed histogram: 4 sub-buckets per octave (~19% bucket width),
/// values up to 2^63. Percentile() returns the upper bound of the bucket
/// containing the p-quantile — an overestimate by at most one bucket
/// width, which is the right bias for latency reporting.
class LatencyHistogram {
 public:
  static constexpr size_t kSubBuckets = 4;  ///< per octave
  static constexpr size_t kNumBuckets = 64 * kSubBuckets;

  void Record(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t min() const {
    // min_ starts at UINT64_MAX so concurrent Records can race it down
    // with a plain CAS loop; the sentinel never leaks out.
    uint64_t m = min_.load(std::memory_order_relaxed);
    return m == UINT64_MAX ? 0 : m;
  }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  /// Mean of the recorded values (0 when empty).
  uint64_t Mean() const {
    uint64_t n = count();
    return n == 0 ? 0 : sum() / n;
  }
  /// Upper bound of the bucket holding the p-quantile, p in (0, 1].
  uint64_t Percentile(double p) const;

  /// "count=12 mean=34 p50=30 p95=60 p99=61 max=58" — the one-line form
  /// used by MetricsRegistry::Dump.
  std::string Summary() const;

 private:
  static size_t BucketOf(uint64_t value);
  static uint64_t BucketUpperBound(size_t bucket);

  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// Named metrics, created on first touch. Names are dotted paths
/// ("plan_cache.hits", "query.latency_us"); Dump() renders them sorted so
/// the output is stable. Lookup/creation is mutex-guarded; the returned
/// references are stable (map nodes never move) so hot paths may cache
/// them and update lock-free through the instruments' atomics.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) {
    MutexLock lock(mu_);
    return counters_[name];
  }
  Gauge& gauge(const std::string& name) {
    MutexLock lock(mu_);
    return gauges_[name];
  }
  LatencyHistogram& histogram(const std::string& name) {
    MutexLock lock(mu_);
    return histograms_[name];
  }

  /// Read-only lookup; nullptr when the metric was never touched.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const LatencyHistogram* FindHistogram(const std::string& name) const;

  /// All metrics, one per line, sorted by name within each kind.
  std::string Dump() const;

  /// Point-in-time copies for exporters (sys$metrics, the Prometheus
  /// text surface). Same per-instrument race contract as Dump: each
  /// value is coherent, adjacent values may be from adjacent instants.
  struct HistogramSnapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t mean = 0;
    uint64_t p50 = 0;
    uint64_t p95 = 0;
    uint64_t p99 = 0;
    uint64_t max = 0;
  };
  std::map<std::string, uint64_t> CountersSnapshot() const;
  std::map<std::string, int64_t> GaugesSnapshot() const;
  std::map<std::string, HistogramSnapshot> HistogramsSnapshot() const;

 private:
  mutable Mutex mu_;
  std::map<std::string, Counter> counters_ GUARDED_BY(mu_);
  std::map<std::string, Gauge> gauges_ GUARDED_BY(mu_);
  std::map<std::string, LatencyHistogram> histograms_ GUARDED_BY(mu_);
};

}  // namespace pascalr

#endif  // PASCALR_OBS_METRICS_H_
