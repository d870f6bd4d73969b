// End-to-end integration tests across module boundaries: recorded
// discrepancies must replay from their printed SQL; campaigns must behave
// deterministically per seed; every dialect's campaign must run without
// internal errors; reduced reproducers must stay minimal and valid.
#include <gtest/gtest.h>

#include "fuzz/aei.h"
#include "fuzz/campaign.h"
#include "fuzz/reducer.h"
#include "geom/wkb.h"
#include "geom/wkt_reader.h"
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

}  // namespace
}  // namespace spatter::fuzz
