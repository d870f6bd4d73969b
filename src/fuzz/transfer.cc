#include "fuzz/transfer.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/coverage.h"
#include "fuzz/campaign.h"
#include "fuzz/oracles.h"

namespace spatter::fuzz {

std::vector<uint64_t> ReplayCoverageSites(engine::Engine* engine,
                                          const corpus::TestCaseRecord& entry,
                                          const DatabaseSpec& sdb) {
  engine->Reset();
  // The trace brackets the whole replay, so the entry is credited with
  // exactly the sites this execution hits — the same accounting a native
  // campaign iteration gets.
  CoverageRegistry::BeginTrace();
  const Status load = LoadDatabase(engine, sdb, nullptr);
  if (load.ok() && entry.has_query) {
    OracleCtx ctx;
    ctx.transform = entry.transform;
    AeiOracle().Check(engine, sdb, entry.query, ctx);
  }
  std::vector<uint64_t> keys = CoverageRegistry::Instance().KeysOf(
      CoverageRegistry::TakeTrace(), Campaign::HarnessCoverageModules());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

TransferStats CrossDialectCorpusTransfer(corpus::Corpus* corpus,
                                         bool enable_faults) {
  TransferStats stats;
  if (corpus == nullptr) return stats;
  const std::vector<corpus::TestCaseRecord> entries = corpus->Entries();
  stats.entries = entries.size();

  // One engine per dialect, reset per replay: engine construction builds
  // the dialect catalog and fault set, which would dominate 4 * entries
  // throwaway instances.
  std::unique_ptr<engine::Engine> engines[engine::kNumDialects];
  for (int d = 0; d < engine::kNumDialects; ++d) {
    engines[d] = std::make_unique<engine::Engine>(
        static_cast<engine::Dialect>(d), enable_faults);
  }

  for (const corpus::TestCaseRecord& entry : entries) {
    for (int d = 0; d < engine::kNumDialects; ++d) {
      const auto dialect = static_cast<engine::Dialect>(d);
      if (dialect == entry.dialect) continue;
      stats.replays++;
      corpus::TestCaseRecord copy = entry;
      copy.dialect = dialect;
      copy.sites = ReplayCoverageSites(engines[d].get(), entry, entry.sdb);
      if (corpus->Admit(std::move(copy))) stats.admitted++;
    }
  }
  return stats;
}

}  // namespace spatter::fuzz
