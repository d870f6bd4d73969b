// Cross-shard result aggregation for the parallel campaign runtime.
//
// Shards run isolated Campaign instances (own Engine, own FaultState, own
// RNG stream) and report plain CampaignResults; the aggregator folds them
// into one campaign-level result:
//   - findings counted, and the discrepancies a result still holds
//     concatenated, then ordered by (iteration, query_index, dialect) so
//     the merged report reads like a serial run whatever the merge order;
//   - unique_bugs deduplicated by FaultId, one (fault, finding) pair at a
//     time (MergeUniqueBug): the finding fuzz::DetectedEarlier ranks first
//     stands. Every tier feeds it the same pairs, each iteration's first
//     report of each fault (fuzz::CampaignResult::Record): the in-process
//     runtime inside each iteration's delta, a fleet worker as one BUG
//     frame per pair, a checkpoint as its bug lines. The order is total
//     across (dialect, iteration) pairs, so the winner per bug is the
//     serial run's, whatever the shard count, schedule, process split or
//     arrival order;
//   - iteration/query/check counters and EngineStats summed;
//   - the Figure-7 time split preserved: busy_seconds accumulates the
//     iterations' wall time and engine_seconds their SDBMS time, while
//     total_seconds is stamped with the sharded run's wall clock.
#ifndef SPATTER_RUNTIME_AGGREGATOR_H_
#define SPATTER_RUNTIME_AGGREGATOR_H_

#include <memory>

#include "corpus/corpus.h"
#include "fuzz/campaign.h"

namespace spatter::runtime {

class Aggregator {
 public:
  /// Folds a result (an iteration's delta, a whole run's result, or a
  /// restored checkpoint's totals) into the running aggregate. The rvalue
  /// overload moves discrepancy payloads instead of deep-copying them —
  /// use it on the slice loop's hot path, where merges run under the
  /// shared aggregate lock.
  void Merge(const fuzz::CampaignResult& shard);
  void Merge(fuzz::CampaignResult&& shard);

  /// Lets `d` compete to stand for fault `id`: it replaces the incumbent
  /// when fuzz::DetectedEarlier ranks it first. It is neither counted (the
  /// result or SLICEPROGRESS frame of its iteration counts its findings)
  /// nor kept in the report, so a long run does not grow. Merge runs every
  /// unique bug of a result through here; the fleet supervisor runs each
  /// BUG frame and each restored checkpoint bug.
  void MergeUniqueBug(faults::FaultId id, fuzz::Discrepancy d);

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
