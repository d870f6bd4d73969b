// Campaign driver: the end-to-end Spatter loop of Figure 5 — generate,
// construct affine equivalent inputs, validate results — with timing split
// (Figure 7), coverage sampling (Table 5, Figure 8), crash capture, and
// unique-bug accounting (Figure 8a).
//
// Every iteration reseeds the RNG from (campaign seed, iteration index) via
// Rng::SplitSeed, so iteration i produces the same database and queries no
// matter which shard, thread, or process executes it, or in what order.
// This is what lets the sharded runtime (src/runtime/) split one campaign
// across any number of workers and still reproduce the exact universe of
// test cases a serial run would explore.
//
// Corpus mode (config.corpus.enabled) adds greybox feedback on top:
// iterations that hit new coverage are admitted to a corpus, and a
// scheduled fraction of later iterations mutates stored entries instead of
// generating fresh databases. The determinism contract weakens honestly:
// an iteration's input now depends on the shard's own corpus history, so
// the test-case universe is a pure function of (seed, shard count) — any
// run with the same --jobs reproduces it exactly, but different job counts
// may explore different mutants. Pure-generate mode (corpus disabled)
// keeps the full jobs-invariance guarantee above.
#ifndef SPATTER_FUZZ_CAMPAIGN_H_
#define SPATTER_FUZZ_CAMPAIGN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algo/affine.h"
#include "corpus/corpus.h"
#include "corpus/mutator.h"
#include "corpus/scheduler.h"
#include "engine/engine.h"
#include "fuzz/generator.h"
#include "fuzz/oracle_suite.h"
#include "fuzz/oracles.h"
#include "fuzz/testcase.h"

namespace spatter::fuzz {

struct CampaignConfig {
  engine::Dialect dialect = engine::Dialect::kPostgis;
  uint64_t seed = 42;
  size_t iterations = 20;           ///< database generations ("runs")
  size_t queries_per_iteration = 100;  ///< paper §5.4: 100 random queries
  GeneratorConfig generator;
  /// Percent of iterations that build GiST indexes (exposes index bugs).
  int index_pct = 30;
  /// Percent of AEI checks that use the identity matrix, i.e. pure
  /// canonicalization checks (paper §4.3 treats canonicalization as a
  /// special case of AEI).
  int canonical_only_pct = 25;
  /// Inject the dialect's default fault set (false = fixed engine).
  bool enable_faults = true;
  /// Greybox corpus feedback (see the class comment for the determinism
  /// contract). Disabled by default: pure-generate campaigns draw an
  /// identical RNG stream to pre-corpus builds.
  corpus::CorpusOptions corpus;
  /// Oracles run per query, in order (CLI `--oracles=`). Input
  /// construction draws the SAME random stream whatever this holds — the
  /// suite only decides which judges run — so the default, AEI alone, is
  /// bit-identical to the pre-suite campaign, and any suite keeps the
  /// pure-generate factorization invariance.
  OracleSuiteSpec oracles;
};

/// One recorded discrepancy (logic or crash).
struct Discrepancy {
  size_t iteration = 0;
  size_t query_index = 0;
  bool is_crash = false;
  /// The oracle that detected this discrepancy: reduction, replay, and
  /// reproducer files all re-run THIS check, not unconditionally AEI.
  OracleKind oracle = OracleKind::kAei;
  /// Dialect of the engine that produced the discrepancy; lets fleet-mode
  /// consumers (aggregated multi-dialect runs) rebuild a matching engine
  /// for reduction and reporting.
  engine::Dialect dialect = engine::Dialect::kPostgis;
  /// Secondary dialect of the detecting check; meaningful only when
  /// `oracle == kDifferential` (MakeDetectingOracle rebuilds the pair).
  engine::Dialect diff_secondary = engine::Dialect::kMysql;
  QuerySpec query;
  DatabaseSpec sdb1;
  algo::AffineTransform transform;
  std::string detail;
  std::set<faults::FaultId> fault_hits;
  double elapsed_seconds = 0.0;  ///< campaign time at detection

  /// Black-box signature (oracle, predicate, crash or logic, detail): a
  /// key the tests compare findings by across runs.
  std::string Signature() const;
};

/// Whether finding `a` was detected before `b` in campaign order: by
/// iteration, then a crash before a logic finding, then by query index,
/// then by dialect. The order is by logical position, never wall clock:
/// an iteration runs on one shard, so it is the same for every shard count
/// and schedule. Dialect breaks the last tie because every dialect runs
/// the same iterations, so a shared-library fault can fire at one position
/// in two dialects; without it the merge's arrival order would pick. It
/// cannot order two findings of one (dialect, iteration) that share a
/// query and crash flag (two oracles judging one query), and need not:
/// within one iteration the first report stands (CampaignResult::Record),
/// so only one finding per fault and (dialect, iteration) is ever ranked.
bool DetectedEarlier(const Discrepancy& a, const Discrepancy& b);

/// The reproducer record of finding `d` in a campaign seeded `master_seed`
/// (its fault ids are every fault `d` fired): the one place a finding
/// becomes a record, for BUG frames, checkpoints, reproducer files and
/// in-flight records.
corpus::TestCaseRecord ReproducerOf(const Discrepancy& d,
                                    uint64_t master_seed);

/// The finding a reproducer record holds: ReproducerOf's inverse up to
/// what a record does not store (query index, crash flag, detail, time).
Discrepancy FindingOf(const corpus::TestCaseRecord& rec);

struct CampaignResult {
  /// The findings in full. A long run's observer may take them out of
  /// each iteration's delta (the CLI and fleet workers do), so only
  /// `findings` counts them for the whole run.
  std::vector<Discrepancy> discrepancies;
  /// Findings recorded, kept in `discrepancies` or not.
  size_t findings = 0;
  /// Ground-truth unique bugs: the finding that stands for each fired
  /// fault. Within one result it is the first recorded report (Record);
  /// between results Aggregator::MergeUniqueBug keeps the one
  /// DetectedEarlier ranks first.
  std::map<faults::FaultId, Discrepancy> unique_bugs;
  size_t iterations_run = 0;
  size_t queries_run = 0;
  size_t checks_run = 0;
  double total_seconds = 0.0;   ///< wall time of the campaign ("Spatter")
  /// Summed per-shard wall time. Equals total_seconds for a serial run;
  /// for an aggregated sharded run it is the cumulative worker time, the
  /// denominator of the Figure-7 Spatter/SDBMS split.
  double busy_seconds = 0.0;
  double engine_seconds = 0.0;  ///< time spent inside the engine ("SDBMS")
  /// Engine counters (statements, join pairs, index scans, ...); summed
  /// across shards by the aggregator.
  engine::EngineStats engine_stats;

  /// Per-oracle attribution of the deduplicated unique bugs: which oracle
  /// won the earliest-detection race for each fault (Table 4's comparison,
  /// live). Keys appear only for oracles that detected something.
  std::map<OracleKind, std::set<faults::FaultId>> UniqueBugsByOracle() const;

  /// Counts `d` and appends it to the report; for every fault it fired
  /// that no earlier record fired, `d` stands. A campaign's iterations
  /// record through here, each into its own result in the sharded runtime,
  /// so an iteration's unique bugs are its first report of each fault:
  /// the rule every tier then merges by DetectedEarlier.
  void Record(Discrepancy d);
};

class Campaign {
 public:
  explicit Campaign(const CampaignConfig& config);

  /// Runs the configured number of iterations (the serial reference; the
  /// wall-budget mode lives in runtime::ShardedCampaign).
  CampaignResult Run();

  // --- Single-shard iteration API (used by runtime::ShardedCampaign) ----

  /// Runs global iteration `iteration`, reseeding the RNG from
  /// (config.seed, iteration) first. Appends discrepancies and updates
  /// counters in `result`; `started_at` anchors elapsed_seconds so shard
  /// results stay comparable when several shards share one start time.
  void RunIterationAt(size_t iteration, CampaignResult* result,
                      double started_at);

  /// Stamps total/busy/engine timing and engine counters accumulated since
  /// `started_at` into `result`. `stats_at_start` is the engine's stats
  /// reading when the run began; only the delta since then is recorded, so
  /// reusing one Campaign for several runs never double-counts.
  void FinalizeResult(CampaignResult* result, double started_at,
                      const engine::EngineStats& stats_at_start);

  /// Monotonic wall clock, comparable across threads.
  static double NowSeconds();

  /// Rebuilds the database a pure-generate iteration would construct,
  /// without running any queries: fresh RNG seeded from
  /// Rng::SplitSeed(config.seed, iteration), same generator draw order as
  /// RunIterationAt (generate, then the index coin). The fleet
  /// supervisor uses this to persist a reproducer for the iteration a
  /// worker died inside — the worker is gone, but in pure-generate mode
  /// its in-flight input is recoverable from (seed, iteration) alone.
  /// Corpus-mode mutants are NOT recoverable this way (they depend on the
  /// dead shard's corpus history).
  static DatabaseSpec GenerateDatabaseFor(
      const CampaignConfig& config, size_t iteration,
      std::vector<GenerationCrash>* crashes = nullptr);

  const CampaignConfig& config() const { return config_; }
  engine::Engine& engine() { return *engine_; }

  /// Coverage modules that instrument the fuzzer itself rather than the
  /// engine under test. Corpus admission (and cross-dialect transfer)
  /// excludes them so entries are rewarded for new ENGINE behaviour only.
  static const std::set<std::string>& HarnessCoverageModules();

  /// Corpus feedback store; null unless config.corpus.enabled.
  corpus::Corpus* corpus() { return corpus_.get(); }
  /// Moves the corpus out (for cross-shard merging); the campaign reverts
  /// to pure-generate behaviour afterwards.
  std::unique_ptr<corpus::Corpus> TakeCorpus() { return std::move(corpus_); }
  /// Pre-seeds the corpus with persisted records (no-op when corpus mode
  /// is off). Records are restored — signature dedup only, never the
  /// new-coverage rule, which would drop entries earned in earlier runs.
  void SeedCorpus(const std::vector<corpus::TestCaseRecord>& records);

 private:
  void RunIteration(size_t iteration, CampaignResult* result,
                    double started_at);

  CampaignConfig config_;
  Rng rng_;
  std::unique_ptr<engine::Engine> engine_;
  std::unique_ptr<OracleSuite> suite_;
  std::unique_ptr<GeometryAwareGenerator> generator_;
  std::unique_ptr<corpus::Corpus> corpus_;            // corpus mode only
  std::unique_ptr<corpus::MutationEngine> mutator_;   // corpus mode only
  std::unique_ptr<corpus::Scheduler> scheduler_;      // corpus mode only
  /// Shard-local iterations since the corpus last admitted an entry;
  /// drives the scheduler's staleness fallback to pure generation.
  size_t iterations_since_admit_ = 0;
  /// Iterations this Campaign instance has run (shard-local), for the
  /// scheduler's warmup window.
  size_t shard_iterations_run_ = 0;
};

}  // namespace spatter::fuzz

#endif  // SPATTER_FUZZ_CAMPAIGN_H_
