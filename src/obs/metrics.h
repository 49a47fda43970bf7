// Engine-wide metrics: a lock-cheap registry of named counters, gauges, and
// log2-bucket histograms, snapshotted on read.
//
// The paper's credibility rests on its cost model predicting what the disk
// actually does; before this layer, the only way to see what the disk (or
// the buffer pool, planner, pruning, maintenance workers...) did at runtime
// was a hand-written bench around SimDisk::thread_stats(). The registry is
// the unified view: every subsystem registers or updates named metrics, and
// Database::MetricsSnapshot() / DbEnv::metrics()->Snapshot() assembles one
// structured snapshot with JSON and Prometheus-text serializers.
//
// Hot-path cost model (the design constraint — instrumentation must be
// near-free next to a single simulated page read):
//
//  * Counter::Add is one relaxed atomic fetch_add on a cache-line-aligned
//    stripe picked by thread (the SimDisk stats-striping idea); value() sums
//    the stripes, so concurrent increments from N threads sum exactly and a
//    snapshot never contends with writers.
//  * Histogram::Record is one relaxed fetch_add on the value's log2 bucket
//    plus a CAS-add into the running sum.
//  * Metric objects are created once (registry mutex) and cached as raw
//    pointers by the instrumented subsystem; the per-event path never takes
//    a lock or hashes a name.
//
// Off-switch: set_enabled(false) gates every native Add/Set/Record behind
// one relaxed bool load (bench_throughput's overhead row measures it).
// Snapshot *hooks* — callbacks that export counters a subsystem already
// maintains for itself (SimDisk stripes, buffer-pool shard counters) — run
// only at snapshot time and are therefore free on the hot path and
// unaffected by the switch.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sync/sync.h"

namespace upi::obs {

class MetricsRegistry;

/// One exported counter or gauge value. `labels` is a raw Prometheus label
/// body, e.g. `shard="3"`; empty for unlabeled metrics.
struct Sample {
  std::string name;
  std::string labels;
  double value = 0.0;
};

/// One exported histogram: cumulative-free per-bucket counts (bucket i holds
/// values v with UpperBound(i-1) < v <= UpperBound(i)), plus count and sum.
struct HistogramSample {
  std::string name;
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  double sum = 0.0;
};

/// A consistent point-in-time copy of every registered metric. Values are
/// plain data — reading or serializing a snapshot never touches the live
/// registry again.
struct MetricsSnapshot {
  std::vector<Sample> counters;  // monotonic
  std::vector<Sample> gauges;    // last-set values
  std::vector<HistogramSample> histograms;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string ToJson() const;
  /// Prometheus text exposition format (# TYPE lines + samples; histograms
  /// as the conventional _bucket{le=...}/_sum/_count series).
  std::string ToPrometheus() const;

  /// First counter/gauge sample with this exact name (labels ignored),
  /// nullptr when absent. Sums labeled series sharing the name into *sum
  /// when non-null.
  const Sample* Find(const std::string& name) const;
  double SumOf(const std::string& name) const;
};

/// Monotonic counter, thread-striped. Near-free: enabled check + one relaxed
/// fetch_add on this thread's stripe.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    AddAlways(n);
  }

  /// Sum of all stripes. Each stripe is updated atomically, so the sum is
  /// exact once writers quiesce and never observes a torn increment.
  uint64_t value() const;

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  void AddAlways(uint64_t n);

  static constexpr size_t kStripes = 16;
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };
  const std::atomic<bool>* enabled_;
  Stripe stripes_[kStripes];
};

/// Last-value-wins gauge (queue depths, resident bytes).
class Gauge {
 public:
  void Set(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
};

/// Log2-bucket histogram over non-negative doubles (latencies in ms or us).
/// Bucket b's upper bound is 2^(b + kMinExp); values at or below 2^kMinExp
/// land in bucket 0, values above the last bound in the overflow bucket.
class Histogram {
 public:
  static constexpr int kMinExp = -10;  // first upper bound: 2^-10 ~ 0.001
  static constexpr size_t kBuckets = 32;

  void Record(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    RecordAlways(v);
  }

  /// The bucket a value lands in (exposed for the boundary tests).
  static size_t BucketIndex(double v);
  /// Inclusive upper bound of bucket `b` (+inf for the overflow bucket).
  static double UpperBound(size_t b);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket_count(size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  void RecordAlways(double v);

  const std::atomic<bool>* enabled_;
  std::atomic<uint64_t> buckets_[kBuckets]{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// The registry: name -> metric, create-on-first-use. Metric objects are
/// heap-stable — cache the returned pointer at subsystem construction and
/// the per-event path never comes back here. Thread-safe throughout.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Create-or-get by exact name. Asking for an existing name with a
  /// different metric type returns nullptr (callers treat a null metric as
  /// "don't record", the same as a disabled registry).
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Registers a snapshot-time exporter for counters a subsystem already
  /// maintains (SimDisk stripes, buffer-pool shard counters): called under
  /// no registry lock, appends samples to the snapshot being built. The
  /// hook must outlive the registry or be functionally inert after its
  /// subject dies; in this codebase hooks are registered only by objects
  /// with the same lifetime as the registry's owner (DbEnv).
  void AddSnapshotHook(std::function<void(MetricsSnapshot*)> hook);

  /// Point-in-time copy of everything: native metrics (sorted by name) then
  /// hook-exported samples.
  MetricsSnapshot Snapshot() const;

  /// Runtime off-switch for native recording (hooks still export at
  /// snapshot time — they read counters their subsystems maintain anyway).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> enabled_{true};
  // Maps + hooks; never held while recording.
  mutable sync::Mutex mu_{sync::LockRank::kMetricsRegistry};
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::vector<std::function<void(MetricsSnapshot*)>> hooks_;
};

}  // namespace upi::obs
