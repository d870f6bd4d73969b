// Sharded campaign orchestrator: the parallel runtime over fuzz::Campaign.
//
// The campaign's iteration universe is a pure function of (seed, iteration
// index) — Campaign::RunIterationAt reseeds its RNG from
// Rng::SplitSeed(seed, i) before every iteration. The orchestrator merely
// partitions the index space: shard k of S runs iterations k, k+S, k+2S...
// on its own Campaign instance (own Engine, own isolated FaultState), so
// ANY shard count reproduces the same total universe of test cases, and a
// one-shard run is bit-for-bit the serial campaign. Shard k's first draw
// therefore comes from the splitmix64-derived seed SplitSeed(seed, k):
// deterministic seed-splitting, no shared RNG, no cross-shard locks on the
// hot path.
//
// Fleet mode runs several dialects at once (--dialect=all): every dialect
// gets its own full set of shards over the same master seed, which keeps
// each dialect's universe identical to a single-dialect run and lets the
// aggregator's FaultId dedup collapse shared-library (GEOS) bugs found by
// multiple dialects into one earliest-detection report.
#ifndef SPATTER_RUNTIME_SHARDED_CAMPAIGN_H_
#define SPATTER_RUNTIME_SHARDED_CAMPAIGN_H_

#include <functional>
#include <memory>
#include <vector>

#include "fuzz/campaign.h"
#include "runtime/aggregator.h"
#include "runtime/thread_pool.h"

namespace spatter::runtime {

struct ShardedCampaignConfig {
  /// Per-shard campaign template. `base.seed` is the master seed;
  /// `base.iterations` is the TOTAL iteration budget per dialect, split
  /// across shards. `base.dialect` is used when `dialects` is empty.
  fuzz::CampaignConfig base;
  /// Worker threads in the pool.
  size_t jobs = 1;
  /// Shards per dialect; 0 = one per job. With the corpus disabled the
  /// unique-bug set is invariant to this value — it only controls how the
  /// fixed universe is split. In corpus mode it parameterizes the
  /// universe (see campaign.h's determinism contract).
  size_t shards = 0;
  /// Dialects to fuzz concurrently; empty = just base.dialect.
  std::vector<engine::Dialect> dialects;
  /// Persisted records every shard's corpus is seeded with before its
  /// first iteration (corpus mode only).
  std::vector<corpus::TestCaseRecord> seed_corpus;
  /// After the cross-shard merge, replay each corpus entry against the
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
  using Sampler =
      std::function<void(double elapsed, const fuzz::CampaignResult&)>;

  explicit ShardedCampaign(const ShardedCampaignConfig& config);

  /// Runs the full iteration budget of every (dialect, shard) pair on the
  /// pool and returns the aggregated result.
  fuzz::CampaignResult Run();

  /// Runs every shard until `deadline_seconds` of wall time elapse
  /// (Figure 8 mode). Every (dialect, shard) pair gets its own thread for
  /// the whole window — oversubscribing `jobs` if needed — since a shard
  /// started after the deadline would contribute nothing. `sampler`, if
  /// set, observes the live aggregate after each completed iteration;
  /// invocations are serialized (thread-safe to use from any sampler,
  /// e.g. for coverage curves).
  fuzz::CampaignResult RunForDuration(double deadline_seconds,
                                      const Sampler& sampler = nullptr);

  /// Effective shard count per dialect.
  size_t shards_per_dialect() const;
  /// Dialects this campaign fuzzes.
  const std::vector<engine::Dialect>& dialects() const { return dialects_; }

  /// All four paper dialects, for fleet mode.
  static std::vector<engine::Dialect> AllDialects();

  /// Per-shard corpora merged across all (dialect, shard) pairs by the
  /// aggregator; null until a corpus-mode Run/RunForDuration completes.
  corpus::Corpus* merged_corpus() { return merged_corpus_.get(); }

 private:
  /// Takes the merged corpus from `aggregator` and (corpus mode with
  /// transfer enabled) replays entries across dialects — the shared
  /// epilogue of Run and RunForDuration.
  void FinishCorpus(Aggregator* aggregator);

  ShardedCampaignConfig config_;
  std::vector<engine::Dialect> dialects_;
  std::unique_ptr<corpus::Corpus> merged_corpus_;
};

}  // namespace spatter::runtime

#endif  // SPATTER_RUNTIME_SHARDED_CAMPAIGN_H_
