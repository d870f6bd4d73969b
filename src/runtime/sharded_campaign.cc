#include "runtime/sharded_campaign.h"

#include <algorithm>
#include <mutex>

#include "fuzz/transfer.h"
#include "runtime/parallel_for.h"

namespace spatter::runtime {

using fuzz::Campaign;
using fuzz::CampaignConfig;
using fuzz::CampaignResult;

ShardedCampaign::ShardedCampaign(const ShardedCampaignConfig& config)
    : config_(config) {
  dialects_ = config.dialects;
  if (dialects_.empty()) dialects_.push_back(config.base.dialect);
}

size_t ShardedCampaign::shards_per_dialect() const {
  if (config_.shards > 0) return config_.shards;
  return std::max<size_t>(1, config_.jobs);
}

std::vector<engine::Dialect> ShardedCampaign::AllDialects() {
  return {engine::Dialect::kPostgis, engine::Dialect::kDuckdbSpatial,
          engine::Dialect::kMysql, engine::Dialect::kSqlserver};
}

CampaignResult ShardedCampaign::Run(const Observer& observer) {
  const size_t stride = shards_per_dialect();
  std::vector<uint64_t> slices = config_.slices;
  if (slices.empty()) {
    for (uint64_t s = 0; s < stride; ++s) slices.push_back(s);
  }
  const double deadline = config_.duration_seconds;
  const double t0 = Campaign::NowSeconds();

  std::mutex merge_mu;
  Aggregator aggregator;
  // Task slots are dialect-major, slice-minor: slot k runs
  // (dialects_[k / slices.size()], slices[k % slices.size()]).
  const size_t tasks = dialects_.size() * slices.size();
  // One corpus slot per task; written only by that task.
  std::vector<std::unique_ptr<corpus::Corpus>> slice_corpora(tasks);
  // A batch task ends at the iteration budget, so `jobs` threads share the
  // tasks. A duration task loops until the shared deadline, so a thread
  // that finished one would start the next after the deadline, to no
  // effect: duration mode gives every task its own thread and lets the OS
  // time-slice.
  ParallelFor(deadline > 0 ? tasks : config_.jobs, tasks, [&](size_t slot) {
    const engine::Dialect dialect = dialects_[slot / slices.size()];
    const uint64_t slice = slices[slot % slices.size()];
    CampaignConfig cfg = config_.base;
    cfg.dialect = dialect;
    Campaign campaign(cfg);
    campaign.SeedCorpus(config_.seed_corpus);
    const double slice_t0 = Campaign::NowSeconds();
    const engine::EngineStats stats_t0 = campaign.engine().stats();
    const auto mark =
        config_.completed.find({static_cast<uint64_t>(dialect), slice});
    uint64_t completed = mark == config_.completed.end() ? 0 : mark->second;
    for (size_t i = slice + completed * stride;; i += stride) {
      if (deadline > 0 ? Campaign::NowSeconds() - t0 >= deadline
                       : i >= cfg.iterations) {
        break;
      }
      if (observer.before && !observer.before(campaign, slice, i)) break;
      // Anchor elapsed_seconds at the run's start so the aggregator's
      // earliest-detection dedup compares like with like across slices.
      CampaignResult delta;
      campaign.RunIterationAt(i, &delta, t0);
      ++completed;
      if (observer.after) observer.after(campaign, slice, completed, &delta);
      // Move-merge keeps the critical section to pointer steals; the
      // sampler runs under the same lock so it always sees a stable
      // aggregate.
      std::lock_guard<std::mutex> lock(merge_mu);
      aggregator.Merge(std::move(delta));
      if (observer.sample) {
        observer.sample(Campaign::NowSeconds() - t0, aggregator.current());
      }
    }
    // Timing-only record: counters were merged per iteration above.
    CampaignResult timing;
    campaign.FinalizeResult(&timing, slice_t0, stats_t0);
    slice_corpora[slot] = campaign.TakeCorpus();
    std::lock_guard<std::mutex> lock(merge_mu);
    aggregator.Merge(std::move(timing));
  });

  // Merge in slot order: (dialect, slice) position, not finish time, so
  // the merged corpus is reproducible for a fixed configuration.
  for (auto& slice_corpus : slice_corpora) {
    if (slice_corpus) aggregator.MergeCorpus(*slice_corpus);
  }
  CampaignResult result = aggregator.Finish(Campaign::NowSeconds() - t0);
  merged_corpus_ = aggregator.TakeCorpus();
  if (merged_corpus_ && config_.cross_dialect_transfer &&
      dialects_.size() > 1) {
    fuzz::CrossDialectCorpusTransfer(merged_corpus_.get(),
                                     config_.base.enable_faults);
  }
  return result;
}

}  // namespace spatter::runtime
