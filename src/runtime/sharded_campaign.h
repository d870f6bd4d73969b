// Sharded campaign orchestrator: the parallel runtime over fuzz::Campaign,
// and the repo's one slice loop — in-process runs, the Figure-8 duration
// mode, and every fleet worker (net/fleet_client.cc) run on it.
//
// The campaign's iteration universe is a pure function of (seed, iteration
// index) — Campaign::RunIterationAt reseeds its RNG from
// Rng::SplitSeed(seed, i) before every iteration. The orchestrator merely
// partitions the index space: slice k of S runs iterations k, k+S, k+2S...
// on its own Campaign instance (own Engine, own isolated FaultState), so
// ANY slice count reproduces the same total universe of test cases, and a
// one-slice run is bit-for-bit the serial campaign. Slice k's first draw
// therefore comes from the splitmix64-derived seed SplitSeed(seed, k):
// deterministic seed-splitting, no shared RNG; slices share only the merge
// lock, taken once per iteration. A fleet worker widens the stride S to
// the fleet-wide slice count and runs only the slices of its assignment,
// resumed at their completed-iteration marks, so any (processes x jobs)
// factorization walks the identical pure-generate universe.
//
// Fleet mode runs several dialects at once (--dialect=all): every dialect
// gets its own full set of slices over the same master seed, which keeps
// each dialect's universe identical to a single-dialect run and lets the
// aggregator's FaultId dedup collapse shared-library (GEOS) bugs found by
// multiple dialects into one earliest-detection report.
#ifndef SPATTER_RUNTIME_SHARDED_CAMPAIGN_H_
#define SPATTER_RUNTIME_SHARDED_CAMPAIGN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "fuzz/campaign.h"
#include "runtime/aggregator.h"

namespace spatter::runtime {

struct ShardedCampaignConfig {
  /// Per-slice campaign template. `base.seed` is the master seed;
  /// `base.iterations` is the TOTAL iteration budget per dialect, split
  /// across slices. `base.dialect` is used when `dialects` is empty.
  fuzz::CampaignConfig base;
  /// Worker threads (batch mode; duration mode runs one per task).
  size_t jobs = 1;
  /// The stride: slices per dialect; 0 = one per job. With the corpus
  /// disabled the unique-bug set is invariant to this value — it only
  /// controls how the fixed universe is split. In corpus mode it
  /// parameterizes the universe (see campaign.h's determinism contract).
  size_t shards = 0;
  /// The slices this run owns, each in [0, stride); empty = all of them.
  std::vector<uint64_t> slices;
  /// Resume marks: iterations already completed per (dialect value,
  /// slice). A slice with mark m starts at iteration slice + m * stride.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> completed;
  /// > 0: run every owned slice until this many seconds of wall time
  /// elapse (Figure 8 mode) instead of the iteration budget. Every
  /// (dialect, slice) pair then gets its own thread for the whole window —
  /// oversubscribing `jobs` if needed — since a slice started after the
  /// deadline would contribute nothing.
  double duration_seconds = 0.0;
  /// Dialects to fuzz concurrently; empty = just base.dialect.
  std::vector<engine::Dialect> dialects;
  /// Persisted records every slice's corpus is seeded with before its
  /// first iteration (corpus mode only).
  std::vector<corpus::TestCaseRecord> seed_corpus;
  /// After the cross-slice merge, replay each corpus entry against the
  /// dialects that did not produce it and admit copies that buy new
  /// coverage (fuzz::CrossDialectCorpusTransfer). Applies only to
  /// multi-dialect campaigns in corpus mode: a single-dialect run never
  /// fuzzes the foreign dialects, so transferred copies would cost
  /// replays and corpus-cap pressure without ever being scheduled
  /// against their own engine.
  bool cross_dialect_transfer = true;
};

class ShardedCampaign {
 public:
  /// Per-iteration hooks; every one is optional. `before` and `after` run
  /// on the slice's own thread, concurrently across slices; `sample` runs
  /// under the merge lock, so its calls are serialized.
  struct Observer {
    /// Before `iteration` of slice `slice` runs on `campaign`. Returning
    /// false ends the slice without running it.
    std::function<bool(fuzz::Campaign& campaign, uint64_t slice,
                       size_t iteration)>
        before;
    /// After it ran, before `delta` (its findings, unique bugs, counters
    /// and time) merges into the run's result. `completed` counts the
    /// slice's completed iterations, resume mark included. An observer
    /// that streams the findings or unique bugs elsewhere, or needs only
    /// their count (`delta->findings` keeps it), may take them out of
    /// `delta`.
    std::function<void(fuzz::Campaign& campaign, uint64_t slice,
                       uint64_t completed, fuzz::CampaignResult* delta)>
        after;
    /// After each merge: wall seconds since Run started and the live
    /// aggregate (discrepancies in merge order), e.g. for coverage curves.
    std::function<void(double elapsed, const fuzz::CampaignResult& live)>
        sample;
  };

  explicit ShardedCampaign(const ShardedCampaignConfig& config);

  /// Runs every owned (dialect, slice) pair as one ParallelFor task — to
  /// the iteration budget, or until the wall budget elapses — and returns
  /// the aggregated result.
  fuzz::CampaignResult Run(const Observer& observer = Observer());

  /// Effective slice count (the stride) per dialect.
  size_t shards_per_dialect() const;
  /// Dialects this campaign fuzzes.
  const std::vector<engine::Dialect>& dialects() const { return dialects_; }

  /// All four paper dialects, for fleet mode.
  static std::vector<engine::Dialect> AllDialects();

  /// Per-slice corpora merged across all (dialect, slice) pairs by the
  /// aggregator; null until a corpus-mode Run completes.
  corpus::Corpus* merged_corpus() { return merged_corpus_.get(); }

 private:
  ShardedCampaignConfig config_;
  std::vector<engine::Dialect> dialects_;
  std::unique_ptr<corpus::Corpus> merged_corpus_;
};

}  // namespace spatter::runtime

#endif  // SPATTER_RUNTIME_SHARDED_CAMPAIGN_H_
