// Campaign telemetry: a process-global registry of named counters, gauges,
// and log-scale latency histograms, recorded lock-free from every campaign
// thread and snapshotted for the fleet wire protocol, the checkpoint, the
// live status line, and the spatter-metrics-v1 JSON dump.
//
// Design constraints, in order:
//   1. Strictly passive. Recording never draws campaign RNG, never takes a
//      lock on the hot path, and nothing in the fuzzing loop branches on a
//      metric value — enabling telemetry must leave the bug-set lines
//      byte-identical (pinned by test and CI).
//   2. Thread-sharded hot path. Counters and histograms split their
//      values across cache-line-aligned shards, one per thread slot
//      (common/thread_slot.h: slots are handed out in order, so the
//      threads of a --jobs=N campaign write different shards and do not
//      bounce one cache line); readers sum the shards. Registration
//      (first use of a name) takes a mutex once; call sites cache the
//      returned stable pointer in a function-local static, mirroring the
//      SPATTER_COV idiom.
//   3. Mergeable snapshots. A MetricsSnapshot is a pure value: counters
//      and gauges sum, histograms sum bucket-wise — merge is associative
//      and commutative, so worker STATS frames, dead-incarnation
//      accumulators, and checkpoint-restored baselines fold in any order.
//      The versioned text codec (EncodeText/DecodeText) validates as
//      strictly as the fleet wire grammar: a corrupt snapshot is rejected,
//      never half-applied.
#ifndef SPATTER_OBS_METRICS_H_
#define SPATTER_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_slot.h"

namespace spatter::obs {

/// Monotonic counter, thread-sharded: Add() touches one shard, Value()
/// sums them (racy reads are fine for telemetry — every increment lands
/// in exactly one shard, so nothing is lost, only read slightly stale).
class Counter {
 public:
  static constexpr size_t kShards = 8;

  void Add(uint64_t n = 1) {
    shards_[ThreadSlot() % kShards].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (Shard& s : shards_) {
      s.v.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// Last-writer-wins instantaneous value (corpus size, live workers, ...).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Fixed-bucket log-scale latency histogram. Bucket i holds observations
/// in [2^i, 2^(i+1)) nanoseconds (bucket 0 also takes 0 ns; the last
/// bucket is open-ended at ~2^47 ns ≈ 39 hours), so merge is an
/// element-wise sum and quantile extraction needs no rebinning. Record()
/// is three relaxed atomic adds on the calling thread's shard — no lock,
/// no allocation; the readers sum the shards.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 48;
  static constexpr size_t kShards = 8;

  void Record(double seconds);
  void RecordNanos(uint64_t ns);

  /// Bucket index for a nanosecond observation (floor(log2), clamped).
  static size_t BucketOf(uint64_t ns);
  /// Inclusive lower bound of bucket i in nanoseconds.
  static uint64_t BucketLowNs(size_t i) {
    return i == 0 ? 0 : (uint64_t{1} << i);
  }

  uint64_t count() const { return Sum(&Shard::count); }
  uint64_t sum_ns() const { return Sum(&Shard::sum_ns); }
  uint64_t bucket(size_t i) const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.buckets[i].load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (Shard& s : shards_) {
      for (auto& b : s.buckets) {
        b.store(0, std::memory_order_relaxed);
      }
      s.count.store(0, std::memory_order_relaxed);
      s.sum_ns.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[kNumBuckets] = {};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum_ns{0};
  };
  uint64_t Sum(std::atomic<uint64_t> Shard::*field) const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += (s.*field).load(std::memory_order_relaxed);
    }
    return total;
  }
  Shard shards_[kShards];
};

/// Value-type copy of one histogram, as carried by a MetricsSnapshot.
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum_ns = 0;
  /// Always LatencyHistogram::kNumBuckets entries once populated; an
  /// all-zero histogram may keep the vector empty.
  std::vector<uint64_t> buckets;

  /// q-quantile in seconds (q in [0,1]), linearly interpolated inside the
  /// log-scale bucket the rank falls in; 0 when empty.
  double QuantileSeconds(double q) const;
  /// Mean in seconds; 0 when empty.
  double MeanSeconds() const {
    return count == 0 ? 0.0 : static_cast<double>(sum_ns) * 1e-9 /
                                  static_cast<double>(count);
  }
  void Merge(const HistogramData& o);
};

/// A mergeable point-in-time copy of a registry (or of a remote worker's
/// registry, decoded from a STATS frame or a checkpoint).
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// Counters and histograms sum; gauges take the incoming value when the
  /// name collides (per-worker gauges are namespaced by the sender, so a
  /// collision means "newer reading of the same instrument").
  void Merge(const MetricsSnapshot& o);

  uint64_t CounterOr(const std::string& name, uint64_t fallback = 0) const {
    auto it = counters.find(name);
    return it == counters.end() ? fallback : it->second;
  }
  const HistogramData* FindHistogram(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? nullptr : &it->second;
  }

  /// Versioned strict text codec. The document is what STATS frames and
  /// checkpoints embed (hex-wrapped); DecodeText rejects version skew,
  /// truncation (the `end <n>` trailer must count the body), unknown line
  /// kinds, malformed numbers, duplicate names, out-of-range bucket
  /// indices, count/bucket-sum mismatches, and any field separator but
  /// one space (one comma between bucket cells).
  std::string EncodeText() const;
  static Result<MetricsSnapshot> DecodeText(const std::string& text);
};

inline constexpr char kMetricsTextMagic[] = "spatter-metrics-text-v1";
inline constexpr char kMetricsJsonSchema[] = "spatter-metrics-v1";

/// Header block of the spatter-metrics-v1 JSON document.
struct MetricsJsonInfo {
  std::string label;  ///< dialect(s) or bench name
  uint64_t seed = 0;
  uint64_t fleet = 0;  ///< worker processes (0 = in-process campaign)
  uint64_t jobs = 0;
  double elapsed_seconds = 0.0;
  /// Pre-computed scalar results (bench throughput numbers and the like),
  /// emitted under "derived" as name -> double.
  std::map<std::string, double> derived;
};

/// Renders the machine-readable spatter-metrics-v1 JSON document:
/// counters and gauges as flat objects, histograms with count/sum and
/// interpolated p50/p90/p99 in microseconds plus sparse [bucket, count]
/// pairs. Keys are sorted (std::map), so equal snapshots render equal
/// bytes.
std::string MetricsToJson(const MetricsSnapshot& snapshot,
                          const MetricsJsonInfo& info);

/// Process-global registry. Get* registers on first use (mutex) and
/// returns a pointer that stays valid for the process lifetime — cache it
/// in a function-local static at the call site.
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  /// Names must be non-empty and contain no whitespace (they are tokens
  /// of the text codec); violations are clamped to '_' rather than
  /// rejected, so a bad name corrupts one label and not the campaign.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetHistogram(const std::string& name);

  /// Copies every registered instrument's current value. All-zero
  /// counters/histograms are still included (a name exists once touched).
  MetricsSnapshot Snapshot() const;

  /// Zeroes all values; registrations (and cached pointers) survive.
  /// Worker processes call this on entry for fresh-process semantics even
  /// when forked from a warm parent (the in-process test path).
  void Reset();

 private:
  MetricsRegistry() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

/// Times a scope into a histogram. kWall uses the steady clock; kThreadCpu
/// uses CLOCK_THREAD_CPUTIME_ID (falling back to steady), matching how
/// EngineStats::exec_seconds is accounted so engine-phase histograms and
/// the Figure-7 split cannot drift apart under core oversubscription.
class ScopedTimer {
 public:
  enum class Clock { kWall, kThreadCpu };

  explicit ScopedTimer(LatencyHistogram* histogram,
                       Clock clock = Clock::kWall)
      : histogram_(histogram), clock_(clock), start_(Now(clock)) {}
  ~ScopedTimer() {
    if (histogram_ != nullptr) {
      histogram_->Record(Now(clock_) - start_);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  static double Now(Clock clock);

 private:
  LatencyHistogram* histogram_;
  Clock clock_;
  double start_;
};

/// One-line counter bump with the pointer cached across calls.
/// Usage: SPATTER_METRIC_INC("corpus.admitted");
#define SPATTER_METRIC_INC(name) SPATTER_METRIC_ADD(name, 1)
#define SPATTER_METRIC_ADD(name, n)                               \
  do {                                                            \
    static ::spatter::obs::Counter* _metric_counter =             \
        ::spatter::obs::MetricsRegistry::Instance().GetCounter(name); \
    _metric_counter->Add(n);                                      \
  } while (0)

/// One-line gauge write with the pointer cached across calls.
/// Usage: SPATTER_METRIC_GAUGE_SET("engine.stmt_cache.size", n);
#define SPATTER_METRIC_GAUGE_SET(name, v)                         \
  do {                                                            \
    static ::spatter::obs::Gauge* _metric_gauge =                 \
        ::spatter::obs::MetricsRegistry::Instance().GetGauge(name); \
    _metric_gauge->Set(static_cast<int64_t>(v));                  \
  } while (0)

}  // namespace spatter::obs

#endif  // SPATTER_OBS_METRICS_H_
