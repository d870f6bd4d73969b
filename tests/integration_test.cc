// End-to-end integration tests across module boundaries: recorded
// discrepancies must replay from their printed SQL; campaigns must behave
// deterministically per seed; every dialect's campaign must run without
// internal errors; reduced reproducers must stay minimal and valid; the
// work of perfbench's round-0 campaigns is pinned exactly.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "fuzz/aei.h"
#include "fuzz/campaign.h"
#include "fuzz/reducer.h"
#include "geom/wkb.h"
#include "geom/wkt_reader.h"
#include "obs/metrics.h"
#include "runtime/sharded_campaign.h"
#include "sql/parser.h"

namespace spatter::fuzz {
namespace {

using engine::Dialect;

CampaignResult RunSmall(Dialect dialect, uint64_t seed,
                        bool enable_faults = true) {
  CampaignConfig config;
  config.dialect = dialect;
  config.seed = seed;
  config.iterations = 8;
  config.queries_per_iteration = 30;
  config.generator.num_geometries = 8;
  config.enable_faults = enable_faults;
  Campaign campaign(config);
  return campaign.Run();
}

TEST(Integration, DiscrepancyReplaysFromPrintedSql) {
  // The two statement sequences Spatter records for a discrepancy must
  // reproduce the differing counts when replayed through a fresh engine.
  const CampaignResult result = RunSmall(Dialect::kPostgis, 424242);
  ASSERT_FALSE(result.discrepancies.empty());
  size_t replayed = 0;
  for (const auto& d : result.discrepancies) {
    if (d.is_crash || replayed >= 3) continue;
    engine::Engine fresh(Dialect::kPostgis, true);
    // Sequence 1: SDB1 as SQL, then the query.
    const DatabaseSpec sdb2 =
        TransformDatabase(d.sdb1, d.transform, /*canonicalize=*/true);
    std::vector<int64_t> counts;
    for (const DatabaseSpec* spec : {&d.sdb1, &sdb2}) {
      fresh.Reset();
      for (const auto& stmt : spec->ToSql()) {
        auto r = fresh.Execute(stmt);
        // INSERT rejections are fine (validity); DDL must succeed.
        if (!r.ok()) {
          EXPECT_EQ(r.status().code(), StatusCode::kInvalidGeometry)
              << stmt << " -> " << r.status().ToString();
        }
      }
      auto q = fresh.Execute(d.query.ToSql());
      if (q.ok()) counts.push_back(q.value().count);
    }
    if (counts.size() == 2) {
      // Counts may legitimately agree here when the mismatch came from
      // acceptance-mask filtering, but at least one replay must differ
      // across the corpus.
      if (counts[0] != counts[1]) replayed++;
    }
  }
  EXPECT_GT(replayed, 0u) << "no discrepancy replayed from printed SQL";
}

TEST(Integration, CampaignsAreDeterministicPerSeed) {
  const CampaignResult a = RunSmall(Dialect::kPostgis, 777);
  const CampaignResult b = RunSmall(Dialect::kPostgis, 777);
  EXPECT_EQ(a.discrepancies.size(), b.discrepancies.size());
  EXPECT_EQ(a.unique_bugs.size(), b.unique_bugs.size());
  ASSERT_EQ(a.discrepancies.size(), b.discrepancies.size());
  for (size_t i = 0; i < a.discrepancies.size(); ++i) {
    EXPECT_EQ(a.discrepancies[i].Signature(),
              b.discrepancies[i].Signature());
  }
  const CampaignResult c = RunSmall(Dialect::kPostgis, 778);
  // A different seed takes a different path (statistically certain).
  EXPECT_NE(a.discrepancies.size() * 1000 + a.unique_bugs.size(),
            c.discrepancies.size() * 1000 + c.unique_bugs.size());
}

TEST(Integration, AllDialectCampaignsRunClean) {
  for (Dialect d : {Dialect::kPostgis, Dialect::kDuckdbSpatial,
                    Dialect::kMysql, Dialect::kSqlserver}) {
    const CampaignResult result = RunSmall(d, 31 + static_cast<int>(d));
    EXPECT_EQ(result.iterations_run, 8u);
    EXPECT_GT(result.queries_run, 0u);
    // Every recorded discrepancy carries attributable ground truth or is
    // a crash with hits.
    for (const auto& disc : result.discrepancies) {
      EXPECT_FALSE(disc.detail.empty() && !disc.is_crash);
    }
  }
}

TEST(Integration, FixedEnginesNeverDisagreeAcrossDialects) {
  // With faults disabled, all four dialects share correct semantics: any
  // query applicable to two dialects must return identical counts. This
  // pins down that the dialect layer only varies surface, not semantics.
  engine::Engine pg(Dialect::kPostgis, false);
  DifferentialOracle vs_duckdb(Dialect::kDuckdbSpatial, false);
  DifferentialOracle vs_mysql(Dialect::kMysql, false);
  Rng rng(5150);
  GeneratorConfig config;
  config.num_geometries = 8;
  GeometryAwareGenerator gen(config, &rng, &pg);
  size_t compared = 0;
  for (int iter = 0; iter < 5; ++iter) {
    const DatabaseSpec sdb = gen.Generate(nullptr);
    for (int q = 0; q < 20; ++q) {
      const QuerySpec query = gen.RandomQuery(sdb);
      const auto o1 = vs_duckdb.Check(&pg, sdb, query, OracleCtx{});
      if (o1.applicable) {
        EXPECT_FALSE(o1.mismatch) << query.ToSql() << ": " << o1.detail;
        compared++;
      }
      // PostGIS vs MySQL: validity-policy differences may legitimately
      // change the loaded rows, so only queries over fully valid data
      // must agree; the check itself must simply not crash.
      const auto o2 = vs_mysql.Check(&pg, sdb, query, OracleCtx{});
      EXPECT_FALSE(o2.crash);
    }
  }
  EXPECT_GT(compared, 0u);
}

TEST(Integration, ReducedCasesStayFailingAndSmall) {
  const CampaignResult result = RunSmall(Dialect::kPostgis, 909090);
  engine::Engine replay(Dialect::kPostgis, true);
  size_t reduced_count = 0;
  for (const auto& d : result.discrepancies) {
    if (d.is_crash || reduced_count >= 2) continue;
    ReductionStats stats;
    const Discrepancy reduced = ReduceDiscrepancy(&replay, d, &stats);
    EXPECT_LE(reduced.sdb1.TotalRows(), d.sdb1.TotalRows());
    OracleCtx ctx;
    ctx.transform = reduced.transform;
    const auto check =
        AeiOracle().Check(&replay, reduced.sdb1, reduced.query, ctx);
    EXPECT_TRUE(check.mismatch || check.crash)
        << "reduction lost the failure";
    // Every reduced geometry is still parseable WKT and WKB-serializable.
    for (const auto& t : reduced.sdb1.tables) {
      for (const auto& wkt : t.rows) {
        auto g = geom::ReadWkt(wkt);
        ASSERT_TRUE(g.ok()) << wkt;
        EXPECT_TRUE(geom::ReadWkb(geom::WriteWkb(*g.value())).ok());
      }
    }
    reduced_count++;
  }
  EXPECT_GT(reduced_count, 0u);
}

TEST(Integration, StatsAccounting) {
  CampaignConfig config;
  config.dialect = Dialect::kPostgis;
  config.seed = 1;
  config.iterations = 3;
  config.queries_per_iteration = 10;
  config.generator.num_geometries = 5;
  Campaign campaign(config);
  const CampaignResult result = campaign.Run();
  EXPECT_EQ(result.queries_run, 30u);
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_GT(result.engine_seconds, 0.0);
  EXPECT_LT(result.engine_seconds, result.total_seconds);
  EXPECT_GT(campaign.engine().stats().statements_executed, 0u);
  EXPECT_GT(campaign.engine().stats().pairs_evaluated, 0u);
}

/// The work of one round-0 campaign of a perfbench workload at its pinned
/// seed: the result's counts, and what the run added to the registry's
/// counters and histogram sample counts.
std::map<std::string, uint64_t> RoundZeroWork(const char* oracles,
                                              size_t geometries,
                                              size_t iterations) {
  // perfbench/workloads.cc's configuration, restated: seed 4242, all four
  // dialects, faults on, pure-generate, 50 queries per iteration. One job
  // (perfbench's suite-j3 runs three): ParallelFor starts fresh threads,
  // so the per-thread relate memo starts empty and relate.full is a
  // function of the inputs, while at three jobs which tasks share a
  // thread's memo depends on scheduling.
  runtime::ShardedCampaignConfig config;
  config.base.seed = 4242;
  config.base.iterations = iterations;
  config.base.queries_per_iteration = 50;
  config.base.generator.num_geometries = geometries;
  config.base.enable_faults = true;
  config.base.oracles = ParseOracleSuite(oracles).value();
  config.jobs = 1;
  config.dialects = runtime::ShardedCampaign::AllDialects();

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  const obs::MetricsSnapshot before = registry.Snapshot();
  const CampaignResult r = runtime::ShardedCampaign(config).Run();
  const obs::MetricsSnapshot after = registry.Snapshot();
  const auto counter = [&](const char* name) {
    return after.CounterOr(name) - before.CounterOr(name);
  };
  const auto samples = [&](const char* name) {
    const obs::HistogramData* a = after.FindHistogram(name);
    const obs::HistogramData* b = before.FindHistogram(name);
    return (a ? a->count : 0) - (b ? b->count : 0);
  };
  return {
      {"queries_run", r.queries_run},
      {"checks_run", r.checks_run},
      {"discrepancies", r.discrepancies.size()},
      {"unique_bugs", r.unique_bugs.size()},
      {"statements", r.engine_stats.statements_executed},
      {"pairs", r.engine_stats.pairs_evaluated},
      {"index_scans", r.engine_stats.index_scans},
      {"prepared", r.engine_stats.prepared_evaluations},
      {"relate.envelope_prefilter", counter("relate.envelope_prefilter")},
      {"relate.memo.hit", counter("relate.memo.hit")},
      {"relate.full", counter("relate.full")},
      {"engine.snapshot.build", counter("engine.snapshot.build")},
      {"engine.restore", samples("engine.restore")},
      {"engine.typed_load", samples("engine.typed_load")},
      {"engine.result_store.replay", counter("engine.result_store.replay")},
      {"engine.result_store.record", counter("engine.result_store.record")},
  };
}

TEST(BenchmarkWork, RoundZeroIsPinned) {
  // Every number here is a pure function of the inputs, so it is pinned
  // exactly, as OracleGolden.CoverageHitsArePinned pins coverage: a
  // change that alters the work (a relate call more or fewer, a statement
  // per load, a snapshot missed) fails here, however fast it runs. A
  // change that means to alter it re-pins these values and says why. On a
  // failure gtest prints the measured map to paste in.
  const std::map<std::string, uint64_t> aei_n40 = {
      {"queries_run", 200},
      {"checks_run", 200},
      {"discrepancies", 22},
      {"unique_bugs", 10},
      {"statements", 9137},
      {"pairs", 102033},
      {"index_scans", 498},
      {"prepared", 2735},
      {"relate.envelope_prefilter", 17674},
      {"relate.memo.hit", 9323},
      {"relate.full", 15306},
      {"engine.snapshot.build", 204},
      {"engine.restore", 596},
      {"engine.typed_load", 204},
      {"engine.result_store.replay", 121},
      {"engine.result_store.record", 79},
  };
  const std::map<std::string, uint64_t> suite_j3 = {
      {"queries_run", 600},
      {"checks_run", 3000},
      {"discrepancies", 150},
      {"unique_bugs", 13},
      {"statements", 15825},
      {"pairs", 60749},
      {"index_scans", 903},
      {"prepared", 1468},
      {"relate.envelope_prefilter", 2905},
      {"relate.memo.hit", 26627},
      {"relate.full", 3616},
      {"engine.snapshot.build", 636},
      {"engine.restore", 5156},
      {"engine.typed_load", 636},
      {"engine.result_store.replay", 5602},
      {"engine.result_store.record", 2318},
  };
  EXPECT_EQ(RoundZeroWork("aei", 40, 1), aei_n40) << "aei-n40";
  EXPECT_EQ(RoundZeroWork("all", 10, 3), suite_j3) << "suite-j3";
}

}  // namespace
}  // namespace spatter::fuzz
