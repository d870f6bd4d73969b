#include "runtime/sharded_campaign.h"

#include <algorithm>
#include <mutex>

#include "fuzz/transfer.h"

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

void ShardedCampaign::FinishCorpus(Aggregator* aggregator) {
  merged_corpus_ = aggregator->TakeCorpus();
  if (merged_corpus_ && config_.cross_dialect_transfer &&
      dialects_.size() > 1) {
    fuzz::CrossDialectCorpusTransfer(merged_corpus_.get(),
                                     config_.base.enable_faults);
  }
}

CampaignResult ShardedCampaign::Run() {
  const size_t shards = shards_per_dialect();
  const double t0 = Campaign::NowSeconds();

  // One result slot per (dialect, shard); written only by the shard task.
  std::vector<CampaignResult> shard_results(dialects_.size() * shards);
  std::vector<std::unique_ptr<corpus::Corpus>> shard_corpora(
      shard_results.size());
  {
    ThreadPool pool(config_.jobs);
    size_t slot = 0;
    for (const engine::Dialect dialect : dialects_) {
      for (size_t shard = 0; shard < shards; ++shard, ++slot) {
        CampaignResult* out = &shard_results[slot];
        std::unique_ptr<corpus::Corpus>* corpus_out = &shard_corpora[slot];
        pool.Submit([this, dialect, shard, shards, t0, out, corpus_out] {
          CampaignConfig cfg = config_.base;
          cfg.dialect = dialect;
          Campaign campaign(cfg);
          campaign.SeedCorpus(config_.seed_corpus);
          const double shard_t0 = Campaign::NowSeconds();
          const engine::EngineStats stats_t0 = campaign.engine().stats();
          for (size_t i = shard; i < cfg.iterations; i += shards) {
            // Anchor elapsed_seconds at the sharded run's start so the
            // aggregator's earliest-detection dedup compares like with
            // like across shards.
            campaign.RunIterationAt(i, out, t0);
          }
          campaign.FinalizeResult(out, shard_t0, stats_t0);
          *corpus_out = campaign.TakeCorpus();
        });
      }
    }
    pool.Wait();
  }

  Aggregator aggregator;
  for (CampaignResult& r : shard_results) aggregator.Merge(std::move(r));
  // Merge in slot order: (dialect, shard) position, not finish time, so
  // the merged corpus is reproducible for a fixed configuration.
  for (auto& shard_corpus : shard_corpora) {
    if (shard_corpus) aggregator.MergeCorpus(*shard_corpus);
  }
  CampaignResult result = aggregator.Finish(Campaign::NowSeconds() - t0);
  FinishCorpus(&aggregator);
  return result;
}

CampaignResult ShardedCampaign::RunForDuration(double deadline_seconds,
                                               const Sampler& sampler) {
  const size_t shards = shards_per_dialect();
  const double t0 = Campaign::NowSeconds();

  std::mutex aggregate_mu;
  Aggregator aggregator;
  std::vector<std::unique_ptr<corpus::Corpus>> shard_corpora(
      dialects_.size() * shards);
  {
    // Every shard task loops until the shared deadline, so a pool smaller
    // than the task count would never start the excess shards (the first
    // wave holds its workers to the deadline, and late starters would see
    // the deadline already passed and contribute zero iterations). Size
    // the pool to the task count and let the OS time-slice; the jobs knob
    // still governs batch-mode concurrency.
    ThreadPool pool(std::max(config_.jobs, dialects_.size() * shards));
    size_t slot = 0;
    for (const engine::Dialect dialect : dialects_) {
      for (size_t shard = 0; shard < shards; ++shard, ++slot) {
        std::unique_ptr<corpus::Corpus>* corpus_out = &shard_corpora[slot];
        pool.Submit([this, dialect, shard, shards, t0, deadline_seconds,
                     &aggregate_mu, &aggregator, &sampler, corpus_out] {
          CampaignConfig cfg = config_.base;
          cfg.dialect = dialect;
          Campaign campaign(cfg);
          campaign.SeedCorpus(config_.seed_corpus);
          const double shard_t0 = Campaign::NowSeconds();
          const engine::EngineStats stats_t0 = campaign.engine().stats();
          size_t iteration = shard;
          while (Campaign::NowSeconds() - t0 < deadline_seconds) {
            CampaignResult delta;
            campaign.RunIterationAt(iteration, &delta, t0);
            iteration += shards;
            // Move-merge keeps the critical section to pointer steals;
            // the sampler runs under the same lock so it always sees a
            // stable aggregate (a per-iteration snapshot copy would cost
            // O(all discrepancies so far) instead).
            std::lock_guard<std::mutex> lock(aggregate_mu);
            aggregator.Merge(std::move(delta));
            if (sampler) {
              sampler(Campaign::NowSeconds() - t0, aggregator.current());
            }
          }
          // Timing-only record: counters were merged per iteration above.
          CampaignResult timing;
          campaign.FinalizeResult(&timing, shard_t0, stats_t0);
          *corpus_out = campaign.TakeCorpus();
          std::lock_guard<std::mutex> lock(aggregate_mu);
          aggregator.Merge(std::move(timing));
        });
      }
    }
    pool.Wait();
  }

  for (auto& shard_corpus : shard_corpora) {
    if (shard_corpus) aggregator.MergeCorpus(*shard_corpus);
  }
  CampaignResult result = aggregator.Finish(Campaign::NowSeconds() - t0);
  FinishCorpus(&aggregator);
  return result;
}

}  // namespace spatter::runtime
