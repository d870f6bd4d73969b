// Cross-shard result aggregation for the parallel campaign runtime.
//
// Shards run isolated Campaign instances (own Engine, own FaultState, own
// RNG stream) and report plain CampaignResults; the aggregator folds them
// into one campaign-level result:
//   - findings counted, and the discrepancies a result still holds
//     concatenated, then ordered by (iteration, query_index, dialect) so
//     the merged report reads like a serial run whatever the merge order;
//   - unique_bugs deduplicated by FaultId. A whole result (a shard's, or
//     one iteration's delta) merges by fuzz::DetectedEarlier alone: its
//     own unique bugs already hold each iteration's first report, and the
//     order is total across (dialect, iteration) pairs, so the winner per
//     bug is the serial run's, whatever the shard count and schedule. A
//     single finding (the fleet's BUG frames) is counted through
//     CampaignResult::Count, whose Offer keeps an iteration's first report
//     of a fault as a whole-result merge does;
//   - iteration/query/check counters and EngineStats summed;
//   - the Figure-7 time split preserved: busy_seconds accumulates per-shard
//     wall time and engine_seconds per-shard SDBMS time, while
//     total_seconds is stamped with the sharded run's wall clock.
#ifndef SPATTER_RUNTIME_AGGREGATOR_H_
#define SPATTER_RUNTIME_AGGREGATOR_H_

#include <memory>

#include "corpus/corpus.h"
#include "fuzz/campaign.h"

namespace spatter::runtime {

class Aggregator {
 public:
  /// Folds a shard result (or a per-iteration delta; zero-valued timing
  /// fields merge as no-ops) into the running aggregate. The rvalue
  /// overload moves discrepancy payloads instead of deep-copying them —
  /// use it on the slice loop's hot path, where merges run under the
  /// shared aggregate lock.
  void Merge(const fuzz::CampaignResult& shard);
  void Merge(fuzz::CampaignResult&& shard);

  /// Folds a single finding in (the fleet supervisor's BUG-frame path):
  /// CampaignResult::Count, so it is counted and offered for every fault
  /// it fired, but not kept: the log of a long run would grow without
  /// bound, and only its count is read.
  void MergeDiscrepancy(const fuzz::Discrepancy& d);

  /// Re-seats a checkpoint-restored unique bug under its recorded FaultId
  /// only: CampaignResult::Offer, so an iteration re-run after resume that
  /// re-reports the fault dedups against the restored winner. Unlike
  /// MergeDiscrepancy this does NOT fan out across d.fault_hits — each
  /// checkpointed fault carries its own winning reproducer, and re-keying
  /// it under a co-fired fault could flip that fault's winner — and does
  /// not count a finding (the checkpoint persists winners, not the count).
  void RestoreUniqueBug(faults::FaultId id, const fuzz::Discrepancy& d);

  /// Running aggregate, for live sampling mid-campaign. Discrepancies are
  /// in merge order, not yet sorted.
  const fuzz::CampaignResult& current() const { return acc_; }

  /// Finalizes and returns the aggregate: discrepancies sorted into
  /// (iteration, query_index, dialect) order, total_seconds set to
  /// `wall_seconds`.
  /// The aggregator is left empty (the merged corpus, if any, stays until
  /// TakeCorpus).
  fuzz::CampaignResult Finish(double wall_seconds);

  /// Folds a shard's corpus into the campaign-level corpus with
  /// coverage-signature dedup: behaviour two shards both discovered is
  /// kept once, and entries restored from disk always survive. The first
  /// merged corpus donates its options.
  void MergeCorpus(const corpus::Corpus& shard);

  /// The merged corpus; null when no shard contributed one.
  std::unique_ptr<corpus::Corpus> TakeCorpus() { return std::move(corpus_); }

 private:
  fuzz::CampaignResult acc_;
  std::unique_ptr<corpus::Corpus> corpus_;
};

}  // namespace spatter::runtime

#endif  // SPATTER_RUNTIME_AGGREGATOR_H_
