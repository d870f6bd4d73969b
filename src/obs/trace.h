// Flight-recorder tracing: a process-global, lock-free, per-thread ring
// buffer of structured campaign events (iteration start/end, mutation op
// chosen, engine phase spans, per-oracle verdicts, corpus admissions,
// checkpoint writes), snapshotted into a versioned spatter-trace-v1 JSONL
// document for --trace-out and for the crash flight recorder: the
// supervisor rebuilds a dead worker's in-flight iteration by re-running
// GenerateDatabaseFor under tracing and persists that iteration's events
// next to the crash reproducer; workers record nothing.
//
// Design constraints, in order:
//   1. Strictly passive, like src/obs/metrics. Recording never draws
//      campaign RNG, never takes a lock on the hot path, and nothing in
//      the fuzzing loop branches on recorded state — bug-set lines are
//      byte-identical with tracing on (pinned by CI).
//   2. Bounded. Each thread owns a fixed ring of kRingEvents slots;
//      recording overwrites the oldest event and counts it as dropped.
//      A disabled recorder costs one relaxed atomic load per call site.
//   3. Torn reads are detected, not prevented. Slots carry a seqlock
//      sequence; Snapshot() retries a slot a few times and skips it if
//      the owning thread keeps writing — a trace is diagnostic data, a
//      missing event is acceptable, a half-written one is not.
//   4. Deterministic sampling. --trace-sample=1/N keeps iterations whose
//      index is divisible by N, derived from the iteration number alone —
//      the same iterations record on every run of the same seed.
#ifndef SPATTER_OBS_TRACE_H_
#define SPATTER_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace spatter::obs {

/// One recorded event, as carried by a TraceSnapshot.
struct TraceEvent {
  uint64_t t_us = 0;       ///< microseconds since the recorder was armed
  uint32_t thread = 0;     ///< recorder-assigned thread ordinal
  uint64_t iteration = 0;  ///< campaign iteration (0 outside iterations)
  uint64_t value = 0;      ///< event-specific scalar (flag, index, micros)
  std::string name;        ///< dotted event name ("oracle.verdict")
  std::string detail;      ///< short annotation ("aei:mismatch")
};

inline constexpr char kTraceJsonSchema[] = "spatter-trace-v1";

/// A point-in-time copy of every thread's ring, chronologically ordered.
struct TraceSnapshot {
  std::vector<TraceEvent> events;
  uint64_t dropped = 0;  ///< events overwritten by ring wraparound

  bool empty() const { return events.empty() && dropped == 0; }

  /// The versioned JSONL document: a header object naming the schema, the
  /// exact event count and the dropped count, then one object per event
  /// line. Written for people and tools to read; the program itself never
  /// reads a trace back.
  std::string EncodeJsonl() const;
};

/// Process-global recorder. Every thread that records gets its own ring
/// on first use; rings outlive their threads so a final drain sees every
/// event. Disabled (the default) recording is a single relaxed load.
class TraceRecorder {
 public:
  static constexpr size_t kRingEvents = 256;  ///< per-thread last-K window
  static constexpr size_t kNameBytes = 40;    ///< slot name capacity
  static constexpr size_t kDetailBytes = 56;  ///< slot detail capacity

  static TraceRecorder& Instance();

  /// Arms the recorder. sample_every = N keeps every Nth iteration
  /// (1 = all); events emitted outside an iteration always record.
  void Enable(uint64_t sample_every = 1);
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  uint64_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  /// Drops all recorded events, re-arms the epoch clock, and zeroes the
  /// dropped count; ring registrations survive. Callers must be quiescent
  /// (no concurrent Emit) — worker processes call this on entry for
  /// fresh-process semantics, mirroring MetricsRegistry::Reset.
  void Reset();

  /// Brackets one campaign iteration on the calling thread: decides the
  /// sampling verdict for `iteration` and records "iter.begin"/"iter.end"
  /// when sampled. Emit() calls in between inherit the verdict.
  void BeginIteration(uint64_t iteration);
  void EndIteration();

  /// Records one event. Inside an iteration the sampling verdict from
  /// BeginIteration applies; outside (supervisor checkpoint writes and
  /// the like) every event records. name/detail are truncated to the
  /// slot capacity; detail may be null.
  void Emit(const char* name, uint64_t value = 0,
            const char* detail = nullptr);

  /// Copies every ring. Consistent per-slot (seqlock-checked), best-effort
  /// across threads; events come back sorted by (t_us, thread).
  TraceSnapshot Snapshot() const;

 private:
  struct Slot;
  struct Ring;

  TraceRecorder() = default;
  Ring* GetRing() const;
  uint64_t NowMicros() const;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> sample_every_{1};
  std::atomic<uint64_t> epoch_ns_{0};

  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<Ring>> rings_;
};

/// Times a scope into a trace event recorded at destruction, with the
/// elapsed wall micros as the value. Costs two relaxed loads when the
/// recorder is disabled or the iteration is unsampled.
class ScopedTraceSpan {
 public:
  explicit ScopedTraceSpan(const char* name, const char* detail = nullptr);
  ~ScopedTraceSpan();
  ScopedTraceSpan(const ScopedTraceSpan&) = delete;
  ScopedTraceSpan& operator=(const ScopedTraceSpan&) = delete;

 private:
  const char* name_;
  const char* detail_;
  uint64_t start_ns_ = 0;  ///< 0 = not recording
};

/// Serializes `snapshot` to `path` atomically (same-dir temp + rename).
Status WriteTraceFile(const std::string& path, const TraceSnapshot& snapshot);

}  // namespace spatter::obs

#endif  // SPATTER_OBS_TRACE_H_
