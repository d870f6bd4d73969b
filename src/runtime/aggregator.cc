#include "runtime/aggregator.h"

#include <algorithm>
#include <utility>

namespace spatter::runtime {

void Aggregator::Merge(const fuzz::CampaignResult& shard) {
  fuzz::CampaignResult copy = shard;
  Merge(std::move(copy));
}

void Aggregator::Merge(fuzz::CampaignResult&& shard) {
  acc_.discrepancies.insert(
      acc_.discrepancies.end(),
      std::make_move_iterator(shard.discrepancies.begin()),
      std::make_move_iterator(shard.discrepancies.end()));
  for (auto& [id, candidate] : shard.unique_bugs) {
    MergeUniqueBug(id, std::move(candidate));
  }
  acc_.findings += shard.findings;
  acc_.iterations_run += shard.iterations_run;
  acc_.queries_run += shard.queries_run;
  acc_.checks_run += shard.checks_run;
  acc_.busy_seconds += shard.busy_seconds;
  acc_.engine_seconds += shard.engine_seconds;
  acc_.engine_stats += shard.engine_stats;
}

void Aggregator::MergeUniqueBug(faults::FaultId id, fuzz::Discrepancy d) {
  auto it = acc_.unique_bugs.find(id);
  if (it == acc_.unique_bugs.end()) {
    acc_.unique_bugs.emplace(id, std::move(d));
  } else if (fuzz::DetectedEarlier(d, it->second)) {
    it->second = std::move(d);
  }
}

void Aggregator::MergeCorpus(const corpus::Corpus& shard) {
  if (!corpus_) {
    // Same cap as the shards: a larger merged cap would persist more
    // entries than the next run's loader and per-shard corpora can hold,
    // and the overflow would be evicted on reload and its files deleted
    // as stale. Keeping every stage at one cap makes save -> reload a
    // fixed point.
    corpus_ = std::make_unique<corpus::Corpus>(shard.options());
  }
  corpus_->MergeFrom(shard);
}

fuzz::CampaignResult Aggregator::Finish(double wall_seconds) {
  // Stable so a shard's in-order records keep their relative order on tie
  // (generation crashes share query_index 0 with the first query). Dialect
  // breaks the cross-shard tie: every dialect runs the same iterations, and
  // their merges arrive in schedule order.
  std::stable_sort(acc_.discrepancies.begin(), acc_.discrepancies.end(),
                   [](const fuzz::Discrepancy& a, const fuzz::Discrepancy& b) {
                     if (a.iteration != b.iteration) {
                       return a.iteration < b.iteration;
                     }
                     if (a.query_index != b.query_index) {
                       return a.query_index < b.query_index;
                     }
                     return static_cast<uint8_t>(a.dialect) <
                            static_cast<uint8_t>(b.dialect);
                   });
  acc_.total_seconds = wall_seconds;
  fuzz::CampaignResult out = std::move(acc_);
  acc_ = fuzz::CampaignResult();
  return out;
}

}  // namespace spatter::runtime
