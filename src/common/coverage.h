// Lightweight coverage instrumentation.
//
// The paper (Table 5, Figure 8b/c) measures gcov line coverage of PostGIS
// and GEOS. We cannot gcov systems we do not run, so the engine and the
// geometry library register named coverage points at interesting code sites
// (branches of the relate computer, dialect paths, edit functions, ...).
// Coverage percentage = hit points / registered points, per module. The
// signal is monotone in exercised behaviour, which is all the experiments
// need (they compare generators and test corpora, not absolute gcov values).
//
// Thread safety: the sharded campaign runtime hits coverage points from
// every worker thread at once, so the registry is fully thread-safe. The
// hit counters are split into kShards cache-line-aligned shards of
// fixed capacity (stable addresses, no lock); Hit() is a relaxed atomic
// increment on the calling thread's shard (common/thread_slot.h), so
// threads do not write each other's cache lines, and readers sum the
// shards. A per-site covered flag, set by the site's first hit in any
// shard, keeps CoveredSiteCount exact. Registration and all
// read/reset/snapshot operations serialize on an internal mutex.
//
// Per-thread taps: a trace (BeginTrace/TakeTrace) collects the sites the
// calling thread hit, and a capture (BeginCapture/EndCapture) collects them
// with their counts. Hit() tests one thread-local flag for both, so with
// neither active it costs what it did with the trace alone. One recorder,
// faults::Effects, captures and replays: fuzz::LoadDatabase records each
// statement and row of a load it snapshots, and the derived state each
// SDB1's canonicalization. A replay is Hit(site, count) per captured site,
// so the global counters, any active trace and capture, and every later
// snapshot diff see exactly what re-running the recorded work would have
// produced. The relate kernel needs no capture: it counts its own sites in
// a fixed tally (relate::Tally) and applies it with Hit(site, count) once
// per run, which the relate memo keeps per entry and replays the same way.
#ifndef SPATTER_COMMON_COVERAGE_H_
#define SPATTER_COMMON_COVERAGE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/thread_slot.h"

namespace spatter {

/// Global registry of coverage points.
class CoverageRegistry {
 public:
  /// Upper bound on distinct coverage sites. Sites are static code
  /// locations, so the count is small and fixed at compile time; the
  /// bound keeps Hit() lock-free (the counter arrays never reallocate).
  static constexpr size_t kMaxPoints = 8192;
  /// Hit-counter shards; threads with consecutive ThreadSlot()s write
  /// different ones.
  static constexpr size_t kShards = 8;

  static CoverageRegistry& Instance();

  /// Registers a point (idempotent) and returns its index.
  size_t Register(const std::string& module, const std::string& point);

  /// Marks a point hit `n` (>= 1) times. Lock-free; safe from any thread.
  /// When the calling thread has an active trace (BeginTrace), the index is
  /// also added to that thread's trace — hits from other threads never leak
  /// in, which is what keeps per-shard corpus admission deterministic under
  /// concurrency — and every active capture (BeginCapture) adds `n` to the
  /// site's count.
  void Hit(size_t index, uint64_t n = 1) {
    shards_[ThreadSlot() % kShards].hits[index].fetch_add(
        n, std::memory_order_relaxed);
    if (!covered_[index].load(std::memory_order_relaxed)) MarkCovered(index);
    if (tapped_) Tap(static_cast<uint32_t>(index), n);
  }

  /// Sites hit at least once since the last reset — one relaxed atomic
  /// load, cheap enough to poll every iteration. Greybox callers compare
  /// it against an earlier reading ("snapshot") to learn whether ANY new
  /// site was covered before paying for a full SnapshotHits() diff.
  size_t CoveredSiteCount() const {
    return covered_count_.load(std::memory_order_relaxed);
  }

  /// Indices whose hit count grew relative to `snapshot` (from
  /// SnapshotHits); indices registered after the snapshot count as new.
  std::vector<uint32_t> NewSitesSince(const std::vector<uint64_t>& snapshot)
      const;

  /// Stable keys (see KeysOf) of the sites NewSitesSince would report,
  /// composed under one lock. The fleet worker polls this between
  /// iterations to ship coverage deltas: keys, not indices, because
  /// registration order differs between worker processes.
  std::vector<uint64_t> KeysCoveredSince(
      const std::vector<uint64_t>& snapshot) const;

  // --- Per-thread coverage trace -------------------------------------------
  // The corpus feedback loop needs "which sites did THIS iteration hit",
  // attributable to the executing thread alone. A thread-local sink makes
  // that exact and deterministic per shard regardless of what other shards
  // hit concurrently (a global snapshot diff would be contaminated).

  /// Starts (or restarts) the calling thread's trace. The trace holds each
  /// site once (an epoch mark per site keeps it O(unique sites), not
  /// O(hits) — one iteration produces ~10^5 hits over a few hundred sites).
  static void BeginTrace();
  /// Ends the trace and returns the sorted, deduplicated site indices the
  /// calling thread hit since BeginTrace().
  static std::vector<uint32_t> TakeTrace();

  // --- Per-thread capture ---------------------------------------------------
  // Short brackets over a few sites (one load statement or row, one
  // canonicalization): a capture keeps every site hit with its count, in
  // first-hit order. It runs alongside an active trace. Captures nest: a
  // hit reaches every active capture, so a load statement's capture also
  // sees the kernel runs inside it, whose tallies apply as hits.

  struct SiteHits {
    uint32_t site;
    uint64_t count;
  };
  /// Clears `*out` and starts recording the calling thread's hits into it,
  /// inside any capture already active.
  static void BeginCapture(std::vector<SiteHits>* out);
  /// Stops the innermost active capture; its vector keeps what it
  /// recorded.
  static void EndCapture();

  /// Stable 64-bit keys (FNV-1a of "module/point") for site indices. Raw
  /// indices are registration order, which varies across processes; keys
  /// are what the corpus persists and dedups on. Sites whose module is in
  /// `exclude_modules` are skipped — the corpus admission path drops
  /// fuzzer-internal modules (campaign, corpus, generator, oracles) so an
  /// entry is admitted for new ENGINE behaviour, not because it was the
  /// first input to exercise a piece of harness instrumentation.
  std::vector<uint64_t> KeysOf(
      const std::vector<uint32_t>& indices,
      const std::set<std::string>& exclude_modules = {}) const;

  /// Clears hit counters (registrations persist).
  void ResetHits();

  /// Number of registered points in a module ("" = all).
  size_t TotalPoints(const std::string& module = "") const;
  /// Number of registered points hit at least once in a module ("" = all).
  size_t HitPoints(const std::string& module = "") const;
  /// HitPoints / TotalPoints in percent; 0 if no points registered.
  double Percent(const std::string& module = "") const;

  /// Per-module (module, hit, total) summary rows.
  struct ModuleSummary {
    std::string module;
    size_t hit = 0;
    size_t total = 0;
  };
  std::vector<ModuleSummary> Summaries() const;

  /// Snapshot of hit counters, restorable; used to combine "unit tests"
  /// and "unit tests + Spatter" configurations in the Table 5 bench.
  std::vector<uint64_t> SnapshotHits() const;
  void RestoreHits(const std::vector<uint64_t>& hits);

 private:
  CoverageRegistry() = default;
  struct Point {
    std::string module;
    std::string name;
    /// FNV-1a of "module/point", computed once at registration so KeysOf
    /// is a plain indexed load under the lock.
    uint64_t key = 0;
  };

  mutable std::mutex mu_;  // guards points_ and index_
  std::vector<Point> points_;
  std::map<std::string, size_t> index_;  // "module/point" -> index
  /// Fixed-capacity so concurrent Hit() never races a reallocation.
  struct alignas(64) Shard {
    std::atomic<uint64_t> hits[kMaxPoints] = {};
  };
  Shard shards_[kShards];
  /// Set by a site's first hit in any shard (and by Restore).
  std::atomic<bool> covered_[kMaxPoints] = {};
  /// Sites whose covered flag is set (maintained by Hit/Reset/Restore).
  std::atomic<size_t> covered_count_{0};

  /// A site's hit count: the sum over the shards.
  uint64_t Hits(size_t index) const;
  /// Sets the site's covered flag; the first caller counts it covered.
  void MarkCovered(size_t index) {
    if (!covered_[index].exchange(true, std::memory_order_relaxed)) {
      covered_count_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Feeds the calling thread's active trace and capture.
  static void Tap(uint32_t index, uint64_t n);
  /// True while the calling thread has a trace or a capture active.
  static inline thread_local bool tapped_ = false;
};

namespace internal {
/// Registers once (function-local static) and bumps the hit counter.
struct CovSite {
  size_t index;
  CovSite(const char* module, const char* point)
      : index(CoverageRegistry::Instance().Register(module, point)) {}
};
}  // namespace internal

/// Drops a named coverage point at the current code site, hit `n` times.
/// The site registers on its first hit, so an unreached site counts in no
/// module's total.
/// Usage: SPATTER_COV_N("locate", "exterior", tally_count);
#define SPATTER_COV_N(module, point, n)                                 \
  do {                                                                  \
    static ::spatter::internal::CovSite _cov_site(module, point);       \
    ::spatter::CoverageRegistry::Instance().Hit(_cov_site.index, n);    \
  } while (0)

/// The same, hit once.
/// Usage: SPATTER_COV("relate", "line_line_proper_crossing");
#define SPATTER_COV(module, point) SPATTER_COV_N(module, point, 1)

}  // namespace spatter

#endif  // SPATTER_COMMON_COVERAGE_H_
