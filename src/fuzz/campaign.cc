#include "fuzz/campaign.h"

#include <chrono>

#include "common/coverage.h"
#include "fuzz/aei.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace spatter::fuzz {

std::string Discrepancy::Signature() const {
  std::string sig = OracleKindName(oracle);
  sig += "/";
  sig += query.predicate;
  sig += is_crash ? "/crash" : "/logic";
  sig += "/";
  sig += detail;
  return sig;
}

bool DetectedEarlier(const Discrepancy& a, const Discrepancy& b) {
  if (a.iteration != b.iteration) return a.iteration < b.iteration;
  if (a.is_crash != b.is_crash) return a.is_crash;
  if (a.query_index != b.query_index) return a.query_index < b.query_index;
  return static_cast<uint8_t>(a.dialect) < static_cast<uint8_t>(b.dialect);
}

corpus::TestCaseRecord ReproducerOf(const Discrepancy& d,
                                    uint64_t master_seed) {
  corpus::TestCaseRecord rec;
  rec.kind = corpus::RecordKind::kReproducer;
  rec.dialect = d.dialect;
  rec.seed = Rng::SplitSeed(master_seed, d.iteration);
  rec.iteration = d.iteration;
  rec.sdb = d.sdb1;
  rec.has_query = !d.query.predicate.empty();
  rec.query = d.query;
  rec.transform = d.transform;
  rec.oracle = d.oracle;
  rec.diff_secondary = d.diff_secondary;
  for (faults::FaultId id : d.fault_hits) {
    rec.fault_ids.push_back(static_cast<uint32_t>(id));
  }
  return rec;
}

Discrepancy FindingOf(const corpus::TestCaseRecord& rec) {
  Discrepancy d;
  d.iteration = rec.iteration;
  d.oracle = rec.oracle;
  d.dialect = rec.dialect;
  d.diff_secondary = rec.diff_secondary;
  if (rec.has_query) d.query = rec.query;
  d.sdb1 = rec.sdb;
  d.transform = rec.transform;
  for (uint32_t raw : rec.fault_ids) {
    d.fault_hits.insert(static_cast<faults::FaultId>(raw));
  }
  return d;
}

std::map<OracleKind, std::set<faults::FaultId>>
CampaignResult::UniqueBugsByOracle() const {
  std::map<OracleKind, std::set<faults::FaultId>> by_oracle;
  for (const auto& [id, d] : unique_bugs) by_oracle[d.oracle].insert(id);
  return by_oracle;
}

void CampaignResult::Record(Discrepancy d) {
  for (faults::FaultId id : d.fault_hits) unique_bugs.try_emplace(id, d);
  findings++;
  discrepancies.push_back(std::move(d));
}

Campaign::Campaign(const CampaignConfig& config)
    : config_(config), rng_(config.seed) {
  engine_ = std::make_unique<engine::Engine>(config.dialect,
                                             config.enable_faults);
  suite_ = std::make_unique<OracleSuite>(config.oracles, config.dialect,
                                         config.enable_faults);
  generator_ = std::make_unique<GeometryAwareGenerator>(config.generator,
                                                        &rng_, engine_.get());
  if (config.corpus.enabled) {
    corpus_ = std::make_unique<corpus::Corpus>(config.corpus);
    corpus::MutatorConfig mutator_config;
    mutator_config.coord_range = config.generator.coord_range;
    mutator_ = std::make_unique<corpus::MutationEngine>(mutator_config);
    scheduler_ = std::make_unique<corpus::Scheduler>(config.corpus);
  }
}

void Campaign::SeedCorpus(const std::vector<corpus::TestCaseRecord>& records) {
  if (!corpus_) return;
  // Restore, not Admit: persisted records already earned their slots in a
  // previous run; re-litigating the new-coverage rule in load order would
  // drop some of them.
  for (const auto& record : records) corpus_->Restore(record);
}

const std::set<std::string>& Campaign::HarnessCoverageModules() {
  static const std::set<std::string> kHarnessModules = {
      "campaign", "corpus", "generator", "aei", "oracle"};
  return kHarnessModules;
}

DatabaseSpec Campaign::GenerateDatabaseFor(
    const CampaignConfig& config, size_t iteration,
    std::vector<GenerationCrash>* crashes) {
  // Mirrors the pure-generate arm of RunIteration draw for draw: reseed,
  // generate, then the index coin — so the returned spec is byte-for-byte
  // the database that iteration runs (RunIteration has a test pinning the
  // two paths together).
  obs::TraceRecorder& tracer = obs::TraceRecorder::Instance();
  Rng rng(Rng::SplitSeed(config.seed, iteration));
  tracer.Emit("gen.reseed", Rng::SplitSeed(config.seed, iteration));
  engine::Engine engine(config.dialect, config.enable_faults);
  GeometryAwareGenerator generator(config.generator, &rng, &engine);
  DatabaseSpec sdb = generator.Generate(crashes);
  uint64_t rows = 0;
  for (const auto& table : sdb.tables) rows += table.rows.size();
  tracer.Emit("gen.database", rows);
  sdb.with_index = rng.Percent(config.index_pct);
  tracer.Emit("gen.index_coin", sdb.with_index ? 1 : 0);
  return sdb;
}

double Campaign::NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Campaign::RunIterationAt(size_t iteration, CampaignResult* result) {
  const double t0 = NowSeconds();
  const engine::EngineStats stats_t0 = engine_->stats();
  // Iteration i draws from its own splitmix64-derived stream: the test
  // cases of iteration i are identical whether it runs serially, on shard
  // 0 of 1, or on shard 3 of 8.
  rng_.Seed(Rng::SplitSeed(config_.seed, iteration));
  obs::TraceRecorder& tracer = obs::TraceRecorder::Instance();
  tracer.BeginIteration(iteration);
  RunIteration(iteration, result);
  tracer.EndIteration();
  const engine::EngineStats stats = engine_->stats() - stats_t0;
  result->engine_stats += stats;
  result->engine_seconds += stats.exec_seconds;
  result->busy_seconds += NowSeconds() - t0;
}

void Campaign::RunIteration(size_t iteration, CampaignResult* result) {
  // Step 1: input construction — geometry-aware generation, or (corpus
  // mode) mutation of a stored entry when the scheduler says so. The
  // thread-local coverage trace brackets the whole iteration so admission
  // sees exactly the sites THIS iteration hit, untouched by other shards.
  engine_->Reset();
  if (corpus_) CoverageRegistry::BeginTrace();
  std::vector<GenerationCrash> crashes;
  DatabaseSpec sdb1;
  corpus::TestCaseRecord parent;
  bool mutated = false;
  static obs::LatencyHistogram* mutate_hist =
      obs::MetricsRegistry::Instance().GetHistogram("campaign.mutate");
  static obs::LatencyHistogram* generate_hist =
      obs::MetricsRegistry::Instance().GetHistogram("campaign.generate");
  static obs::LatencyHistogram* check_hist =
      obs::MetricsRegistry::Instance().GetHistogram("campaign.check");
  if (corpus_ &&
      scheduler_->ShouldMutate(*corpus_, shard_iterations_run_,
                               iterations_since_admit_, &rng_)) {
    obs::ScopedTimer mutate_timer(mutate_hist);
    SPATTER_METRIC_INC("campaign.mutate_iterations");
    SPATTER_COV("campaign", "corpus_mutate_iteration");
    const size_t pick = scheduler_->PickEntry(*corpus_, &rng_);
    obs::TraceRecorder::Instance().Emit("input.mutate", pick);
    corpus_->NoteFuzzed(pick);
    parent = corpus_->Entry(pick);
    sdb1 = mutator_->MutateDatabase(parent.sdb, &rng_);
    if (config_.generator.derivative_enabled) {
      // Mutate through the engine's own editing functions too (the EET
      // data-aware idea): derive geometries from the mutated database and
      // splice them in. Without this, derivation-path bugs would be
      // reachable only on generate iterations (which run ~N/2 derives
      // each) and corpus mode would trade those bugs away.
      const uint64_t splices = 1 + rng_.Below(3);
      for (uint64_t s = 0; s < splices; ++s) {
        geom::GeomPtr derived = generator_->Derive(sdb1, &crashes);
        size_t table, row;
        if (!corpus::MutationEngine::PickRow(sdb1, &rng_, &table, &row)) {
          break;
        }
        sdb1.tables[table].rows[row] = derived->ToWkt();
      }
    }
    mutated = true;
  } else {
    obs::ScopedTimer generate_timer(generate_hist);
    SPATTER_METRIC_INC("campaign.generate_iterations");
    obs::TraceRecorder::Instance().Emit("input.generate");
    sdb1 = generator_->Generate(&crashes);
  }
  // Mutants keep the parent's index configuration half the time: several
  // catalog bugs live on the index path, and an indexed parent that
  // reached them is worth re-probing with the index still on.
  sdb1.with_index = (mutated && rng_.Percent(50))
                        ? parent.sdb.with_index
                        : rng_.Percent(config_.index_pct);
  obs::TraceRecorder::Instance().Emit("input.index_coin",
                                      sdb1.with_index ? 1 : 0);
  for (const auto& crash : crashes) {
    Discrepancy d;
    d.iteration = iteration;
    d.is_crash = true;
    // Input-construction crashes precede any oracle: attributing them to
    // an oracle (even AEI) would corrupt the per-oracle comparison in
    // suites that don't contain it.
    d.oracle = OracleKind::kGeneration;
    d.dialect = config_.dialect;
    d.sdb1 = sdb1;
    d.detail = crash.function + ": " + crash.message;
    obs::TraceRecorder::Instance().Emit("input.generation_crash", 0,
                                        crash.function.c_str());
    d.fault_hits = crash.fault_hits;
    result->Record(std::move(d));
  }

  // Step 2+3: affine equivalent input construction and result validation.
  QuerySpec first_query;
  for (size_t q = 0; q < config_.queries_per_iteration; ++q) {
    QuerySpec query = generator_->RandomQuery(sdb1);
    if (mutated && parent.has_query && rng_.Percent(25)) {
      // Predicate swap against the parent's recorded query: re-probes the
      // behaviour that earned the parent its corpus slot under a
      // different predicate (same table pair, mutated extras).
      query = mutator_->MutateQuery(parent.query, config_.dialect, &rng_);
    }
    if (q == 0) first_query = query;
    const bool canonical_only = rng_.Percent(config_.canonical_only_pct);
    const bool metric_sensitive =
        query.extra == engine::PredicateExtra::kDistance ||
        query.predicate == "~=";
    algo::AffineTransform transform =
        canonical_only ? algo::AffineTransform::Identity()
        : metric_sensitive ? RandomIntegerSimilarity(&rng_)
                           : RandomIntegerAffine(&rng_);
    if (mutated && !canonical_only && !metric_sensitive &&
        rng_.Percent(25)) {
      // Affine-parameter swap. Only for topological predicates: a raw
      // matrix perturbation would break the similarity property that
      // keeps distance predicates affine-invariant.
      transform = mutator_->MutateTransform(transform, &rng_);
    }
    // Judge the query with every configured oracle, in suite order. The
    // transform draws above happen whether or not AEI is in the suite, so
    // the input stream — and therefore the pure-generate factorization
    // invariance — is oracle-independent.
    OracleCtx ctx;
    ctx.transform = transform;
    ctx.canonical_only = canonical_only;
    ctx.query_ordinal =
        static_cast<uint64_t>(iteration) * config_.queries_per_iteration + q;
    result->queries_run++;
    SPATTER_METRIC_INC("campaign.queries");
    std::vector<OracleFinding> findings;
    {
      obs::ScopedTimer check_timer(check_hist);
      findings = suite_->CheckAll(engine_.get(), sdb1, query, ctx);
    }
    for (OracleFinding& finding : findings) {
      result->checks_run++;
      const OracleOutcome& outcome = finding.outcome;
      if (!outcome.applicable) continue;
      if (!outcome.mismatch && !outcome.crash) continue;

      Discrepancy d;
      d.iteration = iteration;
      d.query_index = q;
      d.is_crash = outcome.crash;
      d.oracle = finding.oracle->AttributedKind(ctx);
      d.dialect = config_.dialect;
      if (const auto secondary = finding.oracle->SecondaryDialect()) {
        d.diff_secondary = *secondary;
      }
      d.query = query;
      d.sdb1 = sdb1;
      // Only the AEI oracle re-checks under the drawn transform; every
      // other attribution — including standalone canon findings, whose
      // check pinned the identity matrix whatever was drawn — records the
      // transform actually applied, so reproducers never claim a matrix
      // their check ignored. (AEI-family coin findings are unaffected:
      // their drawn transform IS the identity.)
      d.transform = d.oracle == OracleKind::kAei
                        ? transform
                        : algo::AffineTransform::Identity();
      d.detail = outcome.detail;
      d.fault_hits = outcome.fault_hits;
      SPATTER_COV("campaign", d.is_crash ? "crash_found" : "logic_found");
      SPATTER_METRIC_INC("campaign.discrepancies");
      obs::TraceRecorder::Instance().Emit(
          d.is_crash ? "campaign.crash_found" : "campaign.logic_found", q,
          OracleKindName(d.oracle));
      result->Record(std::move(d));
    }
  }
  if (corpus_) {
    // Feedback: keep the iteration's database when it bought coverage
    // this corpus had never seen (generated AND mutated inputs compete on
    // equal terms — the classic greybox loop).
    const std::vector<uint32_t> trace = CoverageRegistry::TakeTrace();
    corpus::TestCaseRecord record;
    record.kind = corpus::RecordKind::kCorpusEntry;
    record.dialect = config_.dialect;
    record.seed = Rng::SplitSeed(config_.seed, iteration);
    record.iteration = iteration;
    record.sdb = sdb1;
    record.has_query = config_.queries_per_iteration > 0;
    record.query = first_query;
    // Admission must reward new ENGINE behaviour only: the trace also
    // caught the harness's own instrumentation (scheduler, mutator,
    // generator, oracle sites), whose first firing says nothing about the
    // input's value and would auto-admit e.g. the first mutant of a run.
    record.sites = CoverageRegistry::Instance().KeysOf(
        trace, HarnessCoverageModules());
    if (corpus_->Admit(std::move(record))) {
      SPATTER_COV("campaign", "corpus_admit");
      obs::TraceRecorder::Instance().Emit("corpus.admit", iteration);
      iterations_since_admit_ = 0;
    } else {
      iterations_since_admit_++;
    }
  }
  result->iterations_run++;
  shard_iterations_run_++;
  SPATTER_METRIC_INC("campaign.iterations");
}

CampaignResult Campaign::Run() {
  CampaignResult result;
  const double t0 = NowSeconds();
  for (size_t i = 0; i < config_.iterations; ++i) RunIterationAt(i, &result);
  result.total_seconds = NowSeconds() - t0;
  return result;
}

}  // namespace spatter::fuzz
