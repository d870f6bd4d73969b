// Fuzzer tests: generator, AEI construction, oracles, campaign, reducer.
// The most important property checked here: a campaign against a FIXED
// engine reports no discrepancies (the oracle never false-alarms on our
// own semantics), while a campaign against a FAULTY engine finds bugs.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/coverage.h"
#include "corpus/mutator.h"
#include "eet/transform.h"
#include "fuzz/aei.h"
#include "sql/parser.h"
#include "fuzz/campaign.h"
#include "fuzz/generator.h"
#include "fuzz/oracle_suite.h"
#include "fuzz/oracles.h"
#include "fuzz/reducer.h"
#include "geom/wkb.h"
#include "geom/wkt_reader.h"
#include "obs/metrics.h"

namespace spatter::fuzz {
namespace {

using engine::Dialect;

OracleCtx Under(const algo::AffineTransform& transform) {
  OracleCtx ctx;
  ctx.transform = transform;
  return ctx;
}

TEST(Generator, DeterministicFromSeed) {
  for (bool derivative : {false, true}) {
    GeneratorConfig config;
    config.derivative_enabled = derivative;
    config.num_geometries = 12;
    engine::Engine e1(Dialect::kPostgis, false);
    engine::Engine e2(Dialect::kPostgis, false);
    Rng r1(99);
    Rng r2(99);
    GeometryAwareGenerator g1(config, &r1, &e1);
    GeometryAwareGenerator g2(config, &r2, &e2);
    const DatabaseSpec a = g1.Generate(nullptr);
    const DatabaseSpec b = g2.Generate(nullptr);
    ASSERT_EQ(a.tables.size(), b.tables.size());
    for (size_t t = 0; t < a.tables.size(); ++t) {
      EXPECT_EQ(a.tables[t].rows, b.tables[t].rows);
    }
  }
}

TEST(Generator, ProducesRequestedShape) {
  GeneratorConfig config;
  config.num_geometries = 20;
  config.num_tables = 3;
  engine::Engine e(Dialect::kPostgis, false);
  Rng rng(5);
  GeometryAwareGenerator gen(config, &rng, &e);
  const DatabaseSpec sdb = gen.Generate(nullptr);
  EXPECT_EQ(sdb.tables.size(), 3u);
  EXPECT_EQ(sdb.TotalRows(), 20u);
  // Every row must be parseable WKT.
  for (const auto& table : sdb.tables) {
    for (const auto& wkt : table.rows) {
      EXPECT_TRUE(geom::ReadWkt(wkt).ok()) << wkt;
    }
  }
}

TEST(Generator, RandomShapeCoversAllTypes) {
  GeneratorConfig config;
  engine::Engine e(Dialect::kPostgis, false);
  Rng rng(17);
  GeometryAwareGenerator gen(config, &rng, &e);
  std::set<geom::GeomType> seen;
  for (int i = 0; i < 300; ++i) seen.insert(gen.RandomShape()->type());
  EXPECT_EQ(seen.size(), 7u) << "all seven OGC types should appear";
}

TEST(Generator, RandomQueryUsesDialectPredicates) {
  GeneratorConfig config;
  engine::Engine my(Dialect::kMysql, false);
  Rng rng(3);
  GeometryAwareGenerator gen(config, &rng, &my);
  const DatabaseSpec sdb = gen.Generate(nullptr);
  for (int i = 0; i < 100; ++i) {
    const QuerySpec q = gen.RandomQuery(sdb);
    EXPECT_NE(q.table1, q.table2);
    EXPECT_NE(q.predicate, "ST_Covers")
        << "MySQL does not implement ST_Covers";
    EXPECT_NE(q.predicate, "~=") << "MySQL has no ~= operator";
    // The produced SQL parses.
    EXPECT_TRUE(sql::ParseStatement(q.ToSql()).ok()) << q.ToSql();
  }
}

TEST(Aei, TransformDatabasePreservesStructure) {
  DatabaseSpec sdb;
  sdb.tables.push_back(
      TableSpec{"t1", {"POINT(1 2)", "LINESTRING(0 0,1 1)"}});
  const auto t = algo::AffineTransform::Translation(10, 0);
  const DatabaseSpec out = TransformDatabase(sdb, t, /*canonicalize=*/false);
  ASSERT_EQ(out.tables.size(), 1u);
  EXPECT_EQ(out.tables[0].rows[0], "POINT(11 2)");
  EXPECT_EQ(out.tables[0].rows[1], "LINESTRING(10 0,11 1)");
}

TEST(Aei, CanonicalizePassApplied) {
  DatabaseSpec sdb;
  sdb.tables.push_back(
      TableSpec{"t1", {"MULTILINESTRING((0 2,1 0,3 1,3 1,5 0),EMPTY)"}});
  const DatabaseSpec out = TransformDatabase(
      sdb, algo::AffineTransform::Identity(), /*canonicalize=*/true);
  EXPECT_EQ(out.tables[0].rows[0], "LINESTRING(0 2,1 0,3 1,5 0)");
}

TEST(Oracles, AeiCleanEngineNeverMismatches) {
  // The self-consistency property everything rests on.
  engine::Engine clean(Dialect::kPostgis, /*enable_faults=*/false);
  GeneratorConfig config;
  config.num_geometries = 8;
  Rng rng(123);
  GeometryAwareGenerator gen(config, &rng, &clean);
  for (int iter = 0; iter < 5; ++iter) {
    const DatabaseSpec sdb = gen.Generate(nullptr);
    for (int q = 0; q < 20; ++q) {
      const QuerySpec query = gen.RandomQuery(sdb);
      const auto transform = RandomIntegerAffine(&rng);
      const OracleOutcome o =
          AeiOracle().Check(&clean, sdb, query, Under(transform));
      EXPECT_FALSE(o.mismatch)
          << query.ToSql() << " under " << transform.ToString() << ": "
          << o.detail;
      EXPECT_FALSE(o.crash);
    }
  }
}

TEST(Oracles, AeiDetectsListing1ScenarioViaTranslation) {
  // The displacement-precision bug fires only when no vertex sits at the
  // origin; translating the Listing 2 database away from the origin flips
  // the result, which is exactly how AEI reveals it.
  engine::Engine faulty(Dialect::kPostgis, /*enable_faults=*/true);
  DatabaseSpec sdb;
  sdb.tables.push_back(TableSpec{"t1", {"LINESTRING(1 1,0 0)"}});
  sdb.tables.push_back(TableSpec{"t2", {"POINT(0.9 0.9)"}});
  QuerySpec q;
  q.table1 = "t1";
  q.table2 = "t2";
  q.predicate = "ST_Covers";
  const auto shift = algo::AffineTransform::Translation(3, 7);
  const OracleOutcome o = AeiOracle().Check(&faulty, sdb, q, Under(shift));
  EXPECT_TRUE(o.mismatch) << o.detail;
  EXPECT_TRUE(o.fault_hits.count(
      faults::FaultId::kPostgisCoversDisplacementPrecision));
}

TEST(Oracles, DifferentialDetectsOwnEngineBugButMissesSharedOne) {
  // MySQL's swapped-axes overlap bug: PostGIS vs MySQL disagree.
  DatabaseSpec sdb;
  sdb.tables.push_back(TableSpec{"t1", {"POLYGON((445 614,26 30,30 80,445 614))"}});
  sdb.tables.push_back(TableSpec{
      "t2",
      {"POLYGON((445 614,26 30,30 80,445 614))"}});
  QuerySpec q;
  q.table1 = "t1";
  q.table2 = "t2";
  q.predicate = "ST_Overlaps";
  engine::Engine pg(Dialect::kPostgis, true);
  DifferentialOracle vs_mysql(Dialect::kMysql, true);
  DifferentialOracle vs_duckdb(Dialect::kDuckdbSpatial, true);

  // ST_Covers is unavailable in MySQL: differential is inapplicable.
  QuerySpec covers = q;
  covers.predicate = "ST_Covers";
  const auto na = vs_mysql.Check(&pg, sdb, covers, OracleCtx{});
  EXPECT_FALSE(na.applicable);

  // Listing 6's GEOS bug: PostGIS and DuckDB agree on the wrong answer.
  DatabaseSpec gc_db;
  gc_db.tables.push_back(TableSpec{"t1", {"POINT(0 0)"}});
  gc_db.tables.push_back(TableSpec{
      "t2", {"GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0))"}});
  QuerySpec within;
  within.table1 = "t1";
  within.table2 = "t2";
  within.predicate = "ST_Within";
  const auto shared = vs_duckdb.Check(&pg, gc_db, within, OracleCtx{});
  EXPECT_TRUE(shared.applicable);
  EXPECT_FALSE(shared.mismatch)
      << "both GEOS-backed systems return the same wrong answer";
  const auto visible = vs_mysql.Check(&pg, gc_db, within, OracleCtx{});
  EXPECT_TRUE(visible.applicable);
  EXPECT_TRUE(visible.mismatch);
}

TEST(Oracles, IndexOracleDetectsGistEmptyBug) {
  engine::Engine faulty(Dialect::kPostgis, true);
  DatabaseSpec sdb;
  sdb.tables.push_back(TableSpec{"t1", {"POINT EMPTY"}});
  sdb.tables.push_back(TableSpec{"t2", {"POINT EMPTY"}});
  QuerySpec q;
  q.table1 = "t1";
  q.table2 = "t2";
  q.predicate = "~=";
  const auto o = IndexOracle().Check(&faulty, sdb, q, OracleCtx{});
  EXPECT_TRUE(o.mismatch) << o.detail;
  EXPECT_TRUE(o.fault_hits.count(faults::FaultId::kPostgisGistEmptySameAs));

  engine::Engine clean(Dialect::kPostgis, false);
  const auto ok = IndexOracle().Check(&clean, sdb, q, OracleCtx{});
  EXPECT_FALSE(ok.mismatch);
}

TEST(Oracles, TlpHoldsOnCleanEngine) {
  engine::Engine clean(Dialect::kPostgis, false);
  GeneratorConfig config;
  config.num_geometries = 8;
  Rng rng(321);
  GeometryAwareGenerator gen(config, &rng, &clean);
  const DatabaseSpec sdb = gen.Generate(nullptr);
  for (int i = 0; i < 15; ++i) {
    const QuerySpec q = gen.RandomQuery(sdb);
    const auto o = TlpOracle().Check(&clean, sdb, q, OracleCtx{});
    if (!o.applicable) continue;
    EXPECT_FALSE(o.mismatch) << q.ToSql() << ": " << o.detail;
  }
}

TEST(Campaign, FaultyPostgisCampaignFindsUniqueBugs) {
  CampaignConfig config;
  config.dialect = Dialect::kPostgis;
  config.seed = 2024;
  config.iterations = 12;
  config.queries_per_iteration = 40;
  config.generator.num_geometries = 10;
  Campaign campaign(config);
  const CampaignResult result = campaign.Run();
  EXPECT_GT(result.discrepancies.size(), 0u);
  EXPECT_GT(result.unique_bugs.size(), 0u);
  EXPECT_EQ(result.iterations_run, 12u);
  // Ground-truth dedup yields far fewer unique bugs than raw reports
  // (paper: 2366 cases -> a handful of bugs).
  EXPECT_LT(result.unique_bugs.size(), result.discrepancies.size());
  // Detection metadata is ordered.
  for (const auto& [id, d] : result.unique_bugs) {
    EXPECT_LT(d.iteration, 12u);
    EXPECT_TRUE(faults::GetFaultInfo(id).name != nullptr);
  }
}

TEST(Campaign, CleanCampaignFindsNothing) {
  CampaignConfig config;
  config.dialect = Dialect::kPostgis;
  config.enable_faults = false;
  config.seed = 77;
  config.iterations = 6;
  config.queries_per_iteration = 30;
  config.generator.num_geometries = 8;
  Campaign campaign(config);
  const CampaignResult result = campaign.Run();
  EXPECT_EQ(result.discrepancies.size(), 0u)
      << (result.discrepancies.empty()
              ? std::string()
              : result.discrepancies[0].query.ToSql() + " " +
                    result.discrepancies[0].detail);
  EXPECT_EQ(result.unique_bugs.size(), 0u);
}

TEST(Campaign, RsgFindsNoMoreThanGag) {
  // Figure 8(a): the geometry-aware generator should find at least as many
  // unique bugs as the random-shape-only baseline at equal budgets.
  auto run = [](bool derivative, uint64_t seed) {
    CampaignConfig config;
    config.dialect = Dialect::kPostgis;
    config.seed = seed;
    config.iterations = 10;
    config.queries_per_iteration = 30;
    config.generator.num_geometries = 10;
    config.generator.derivative_enabled = derivative;
    Campaign campaign(config);
    return campaign.Run().unique_bugs.size();
  };
  size_t gag = 0;
  size_t rsg = 0;
  for (uint64_t seed : {555u, 777u, 999u}) {
    gag += run(true, seed);
    rsg += run(false, seed);
  }
  // Aggregated over seeds to damp noise; a single seed can go either way
  // at this tiny budget.
  EXPECT_GE(gag + 1, rsg);
  EXPECT_GT(gag, 0u);
}

TEST(Reducer, ShrinksListing7Database) {
  engine::Engine faulty(Dialect::kPostgis, true);
  Discrepancy d;
  d.query.table1 = "t1";
  d.query.table2 = "t2";
  d.query.predicate = "ST_Contains";
  d.transform = algo::AffineTransform::Identity();
  d.sdb1.tables.push_back(TableSpec{
      "t1",
      {"MULTIPOLYGON(((0 0,5 0,0 5,0 0)))", "POINT(9 9)", "LINESTRING(7 7,8 8)"}});
  // The two shape-equal candidates differ in representation, so the stale
  // cache fires only after canonicalization unifies them (SDB2).
  d.sdb1.tables.push_back(TableSpec{
      "t2",
      {"GEOMETRYCOLLECTION(MULTIPOINT((0 0),(3 1)))",
       "MULTIPOINT((3 1),(0 0))", "POINT(9 9)"}});
  const auto check =
      AeiOracle().Check(&faulty, d.sdb1, d.query, Under(d.transform));
  ASSERT_TRUE(check.mismatch) << check.detail;

  ReductionStats stats;
  const Discrepancy reduced = ReduceDiscrepancy(&faulty, d, &stats);
  EXPECT_LT(reduced.sdb1.TotalRows(), d.sdb1.TotalRows());
  EXPECT_GT(stats.checks, 0u);
  // The reduced case must still reproduce.
  const auto again =
      AeiOracle().Check(&faulty, reduced.sdb1, d.query, Under(d.transform));
  EXPECT_TRUE(again.mismatch);
  // The duplicate candidate pair is essential to the bug: at least two
  // rows must survive in t2.
  size_t t2_rows = 0;
  for (const auto& t : reduced.sdb1.tables) {
    if (t.name == "t2") t2_rows = t.rows.size();
  }
  EXPECT_GE(t2_rows, 2u);
}

TEST(Discrepancy, SignatureDistinguishesPredicates) {
  Discrepancy a;
  a.query.predicate = "ST_Covers";
  a.detail = "{0} vs {1}";
  Discrepancy b = a;
  b.query.predicate = "ST_Within";
  EXPECT_NE(a.Signature(), b.Signature());
  Discrepancy c = a;
  EXPECT_EQ(a.Signature(), c.Signature());
}

TEST(Oracles, LoadDatabaseMasksInvalidRows) {
  engine::Engine pg(Dialect::kPostgis, false);
  DatabaseSpec sdb;
  sdb.tables.push_back(TableSpec{
      "t1", {"POINT(1 1)", "POLYGON((0 0,1 1,0 1,1 0,0 0))", "POINT(2 2)"}});
  std::vector<std::vector<bool>> accepted;
  ASSERT_TRUE(LoadDatabase(&pg, sdb, &accepted).ok());
  ASSERT_EQ(accepted.size(), 1u);
  EXPECT_EQ(accepted[0], (std::vector<bool>{true, false, true}));
  engine::Engine my(Dialect::kMysql, false);
  ASSERT_TRUE(LoadDatabase(&my, sdb, &accepted).ok());
  EXPECT_EQ(accepted[0], (std::vector<bool>{true, true, true}));

  // The filtered reload: only rows both sides accept are inserted, and
  // the others count as not accepted.
  DatabaseSpec other = sdb;
  other.tables[0].rows[0] = "POLYGON((0 0,1 1,0 1,1 0,0 0))";
  RowMask keep;
  RowMask other_accepted;
  ASSERT_TRUE(LoadDatabase(&pg, sdb, &keep).ok());
  ASSERT_TRUE(LoadDatabase(&pg, other, &other_accepted).ok());
  for (size_t r = 0; r < keep[0].size(); ++r) {
    keep[0][r] = keep[0][r] && other_accepted[0][r];
  }
  EXPECT_EQ(keep[0], (std::vector<bool>{false, false, true}));
  ASSERT_TRUE(LoadDatabase(&pg, sdb, &accepted, &keep).ok());
  EXPECT_EQ(accepted[0], (std::vector<bool>{false, false, true}));
  EXPECT_EQ(pg.FindTable("t1")->rows.size(), 1u);
}

// --- Load snapshots ---------------------------------------------------------
//
// LoadDatabase restores a database it has loaded before from the engine's
// snapshots. The statement path is the reference: a cached load must leave
// what running the CREATE/INSERT statements leaves.

// The statement path of a load: Reset, then every CREATE/INSERT statement
// of the rows `keep` marks. Cached loads are held to it.
Status ReferenceLoad(engine::Engine* engine, const DatabaseSpec& sdb,
                     RowMask* accepted, const RowMask* keep) {
  engine->Reset();
  accepted->clear();
  for (size_t t = 0; t < sdb.tables.size(); ++t) {
    const TableSql sql = RenderTable(sdb.tables[t], sdb.with_index);
    for (const std::string& ddl : sql.ddl) {
      SPATTER_RETURN_NOT_OK(engine->Execute(ddl).status());
    }
    std::vector<bool> mask;
    for (size_t r = 0; r < sql.inserts.size(); ++r) {
      if (keep && !(*keep)[t][r]) {
        mask.push_back(false);
        continue;
      }
      auto result = engine->Execute(sql.inserts[r]);
      if (!result.ok() && result.status().code() == StatusCode::kCrash) {
        return result.status();
      }
      mask.push_back(result.ok());
    }
    accepted->push_back(std::move(mask));
  }
  return Status::OK();
}

// Everything a load leaves that a later statement or the campaign reads.
struct LoadOutcome {
  std::string status;
  RowMask accepted;
  std::map<std::string, std::string> tables;  // name -> index, rows' WKT
  std::map<size_t, uint64_t> coverage;        // site -> hits added
  std::set<faults::FaultId> fault_hits;
  uint64_t statements = 0;

  bool operator==(const LoadOutcome& o) const {
    return status == o.status && accepted == o.accepted &&
           tables == o.tables && coverage == o.coverage &&
           fault_hits == o.fault_hits;
  }
};

std::ostream& operator<<(std::ostream& os, const LoadOutcome& o) {
  os << o.status << ", " << o.coverage.size() << " sites, "
     << o.fault_hits.size() << " fault ids";
  for (const auto& [name, desc] : o.tables) {
    os << "\n  " << name << ": " << desc;
  }
  return os;
}

template <typename Load>
LoadOutcome Observe(engine::Engine* engine, Load load) {
  auto& registry = CoverageRegistry::Instance();
  engine->fault_state().ClearHits();
  const uint64_t statements = engine->stats().statements_executed;
  const std::vector<uint64_t> before = registry.SnapshotHits();
  LoadOutcome out;
  out.status = load(&out.accepted).ToString();
  const std::vector<uint64_t> after = registry.SnapshotHits();
  for (size_t i = 0; i < after.size(); ++i) {
    const uint64_t was = i < before.size() ? before[i] : 0;
    if (after[i] != was) out.coverage[i] = after[i] - was;
  }
  out.fault_hits = engine->fault_state().TakeHits();
  out.statements = engine->stats().statements_executed - statements;
  for (const auto& [name, table] : engine->tables()) {
    std::string& desc = out.tables[name];
    desc = std::string(table.has_index ? "indexed" : "plain") + " g" +
           std::to_string(table.geometry_column);
    for (const engine::Row& row : table.rows) {
      for (const engine::Value& v : row) desc += " | " + v.ToDisplayString();
    }
  }
  return out;
}

LoadOutcome Reference(engine::Engine* engine, const DatabaseSpec& sdb,
                      const RowMask* keep = nullptr) {
  return Observe(engine, [&](RowMask* accepted) {
    return ReferenceLoad(engine, sdb, accepted, keep);
  });
}

LoadOutcome Cached(engine::Engine* engine, const DatabaseSpec& sdb,
                   const RowMask* keep = nullptr) {
  return Observe(engine, [&](RowMask* accepted) {
    return LoadDatabase(engine, sdb, accepted, keep);
  });
}

// Rows the strict dialects reject (a bowtie, a collection whose polygons
// overlap, which the validity check finds with relate), WKT that does not
// parse, EMPTY and a quote. The collection repeats, so the relate memo
// records and then replays it inside an INSERT.
DatabaseSpec RejectingDb() {
  const std::string overlap =
      "GEOMETRYCOLLECTION(POLYGON((0 0,2 0,2 2,0 2,0 0)),"
      "POLYGON((1 1,3 1,3 3,1 3,1 1)))";
  DatabaseSpec sdb;
  sdb.tables.push_back(TableSpec{
      "t1",
      {"POINT(1 1)", "POLYGON((0 0,1 1,0 1,1 0,0 0))", overlap, "POINT(1",
       "LINESTRING(0 0,1 1)", overlap}});
  sdb.tables.push_back(TableSpec{
      "t2", {overlap, "POINT EMPTY", "POINT('1 1)", "POLYGON EMPTY",
             "MULTIPOINT((0 0),(1 1))"}});
  return sdb;
}

std::vector<DatabaseSpec> SnapshotSpecs() {
  std::vector<DatabaseSpec> specs = {RejectingDb()};
  for (uint64_t seed : {11u, 12u, 13u}) {
    GeneratorConfig config;
    config.num_geometries = 14;
    config.num_tables = 3;
    engine::Engine e(Dialect::kPostgis, false);
    Rng rng(seed);
    GeometryAwareGenerator gen(config, &rng, &e);
    specs.push_back(gen.Generate(nullptr));
  }
  return specs;
}

RowMask RandomKeep(const DatabaseSpec& sdb, Rng* rng) {
  RowMask keep;
  for (const TableSpec& table : sdb.tables) {
    std::vector<bool> mask;
    for (size_t r = 0; r < table.rows.size(); ++r) {
      mask.push_back(rng->Percent(60));
    }
    keep.push_back(std::move(mask));
  }
  return keep;
}

TEST(LoadSnapshotExactness, CachedLoadsEqualTheStatementPath) {
  const std::vector<DatabaseSpec> specs = SnapshotSpecs();
  Rng rng(2024);
  size_t restores = 0;
  for (int d = 0; d < engine::kNumDialects; ++d) {
    for (bool faults : {false, true}) {
      const auto dialect = static_cast<Dialect>(d);
      engine::Engine reference(dialect, faults);
      engine::Engine cached(dialect, faults);
      for (DatabaseSpec sdb : specs) {
        for (bool with_index : {false, true}) {
          sdb.with_index = with_index;
          SCOPED_TRACE(std::string(engine::DialectName(dialect)) +
                       (faults ? " faulty" : " fixed") +
                       (with_index ? " indexed" : " plain"));
          // A filtered load without a snapshot runs the statements and
          // keeps none.
          const RowMask cold_keep = RandomKeep(sdb, &rng);
          const LoadOutcome cold = Cached(&cached, sdb, &cold_keep);
          EXPECT_EQ(cold, Reference(&reference, sdb, &cold_keep));
          EXPECT_GT(cold.statements, 0u);

          // The first unfiltered load builds the snapshot, the second
          // restores it, and so do the filtered ones.
          const LoadOutcome expected = Reference(&reference, sdb);
          const LoadOutcome built = Cached(&cached, sdb);
          EXPECT_EQ(built, expected);
          EXPECT_EQ(built.statements, expected.statements);
          const LoadOutcome restored = Cached(&cached, sdb);
          EXPECT_EQ(restored, expected);
          EXPECT_EQ(restored.statements, 0u);
          restores++;
          for (int k = 0; k < 3; ++k) {
            const RowMask keep = RandomKeep(sdb, &rng);
            const LoadOutcome filtered = Cached(&cached, sdb, &keep);
            EXPECT_EQ(filtered, Reference(&reference, sdb, &keep));
            EXPECT_EQ(filtered.statements, 0u);
          }
        }
      }
      // Rejected rows: the strict dialects refuse the bowtie and the
      // overlapping collection, so the masks above covered rejections.
      if (engine::GetDialectTraits(dialect).strict_validity) {
        RowMask accepted;
        ASSERT_TRUE(LoadDatabase(&cached, RejectingDb(), &accepted).ok());
        EXPECT_FALSE(accepted[0][1]);
        EXPECT_FALSE(accepted[0][2]);
      }
    }
  }
  EXPECT_GT(restores, 0u);
}

// The relate memo logs a pair's kernel run and replays it when the pair
// comes again. When both happen inside a snapshot build (the validity
// check of a repeated collection), each INSERT's capture must see the
// kernel's hits, run or replayed: captures nest. The collection is unique
// to this test, so the memo starts cold.
TEST(LoadSnapshotExactness, KernelRunsRecordedInsideABuildAreReplayed) {
  const std::string overlap =
      "GEOMETRYCOLLECTION(POLYGON((40.5 0,42.5 0,42.5 2,40.5 2,40.5 0)),"
      "POLYGON((41.5 1,43.5 1,43.5 3,41.5 3,41.5 1)))";
  DatabaseSpec sdb;
  sdb.tables.push_back(TableSpec{"t1", {overlap, "POINT(1 1)", overlap}});
  engine::Engine cached(Dialect::kPostgis, true);
  engine::Engine reference(Dialect::kPostgis, true);
  const LoadOutcome built = Cached(&cached, sdb);
  const LoadOutcome restored = Cached(&cached, sdb);
  const LoadOutcome expected = Reference(&reference, sdb);
  EXPECT_EQ(built, expected);
  EXPECT_EQ(restored, expected);
  EXPECT_EQ(restored.statements, 0u);
}

TEST(LoadSnapshotExactness, KeysTellApartIndexFaultsAndNames) {
  engine::Engine reference(Dialect::kPostgis, true);
  engine::Engine cached(Dialect::kPostgis, true);
  const DatabaseSpec sdb = RejectingDb();
  ASSERT_EQ(Cached(&cached, sdb), Reference(&reference, sdb));

  // The same rows under another with_index: a new build, with the index.
  DatabaseSpec indexed = sdb;
  indexed.with_index = true;
  const LoadOutcome with_index = Cached(&cached, indexed);
  EXPECT_GT(with_index.statements, 0u);
  EXPECT_EQ(with_index, Reference(&reference, indexed));
  EXPECT_TRUE(cached.FindTable("t1")->has_index);

  // The same rows under another fault mask.
  for (engine::Engine* e : {&reference, &cached}) {
    e->fault_state().Disable(faults::FaultId::kGeosGcBoundaryLastOneWins);
  }
  const LoadOutcome other_faults = Cached(&cached, sdb);
  EXPECT_GT(other_faults.statements, 0u);
  EXPECT_EQ(other_faults, Reference(&reference, sdb));

  // All three loads of the same rows are cached: the index twin and one
  // snapshot under each fault mask.
  auto expect_restored = [&](const DatabaseSpec& spec) {
    const LoadOutcome again = Cached(&cached, spec);
    EXPECT_EQ(again.statements, 0u);
    EXPECT_EQ(again, Reference(&reference, spec));
  };
  expect_restored(sdb);
  for (engine::Engine* e : {&reference, &cached}) {
    e->fault_state().Enable(faults::FaultId::kGeosGcBoundaryLastOneWins);
  }
  expect_restored(sdb);
  expect_restored(indexed);

  // The same rows under another table name: another SDB1, which replaces
  // the first one's state.
  DatabaseSpec renamed = sdb;
  renamed.tables[0].name = "t9";
  const LoadOutcome other_name = Cached(&cached, renamed);
  EXPECT_GT(other_name.statements, 0u);
  EXPECT_EQ(other_name, Reference(&reference, renamed));
  EXPECT_NE(cached.FindTable("t9"), nullptr);
  EXPECT_EQ(cached.FindTable("t1"), nullptr);
  expect_restored(renamed);
  const LoadOutcome first_again = Cached(&cached, sdb);
  EXPECT_GT(first_again.statements, 0u);
  EXPECT_EQ(first_again, Reference(&reference, sdb));
}

TEST(LoadSnapshotExactness, FailedLoadsRunAgainAndFailAlike) {
  engine::Engine reference(Dialect::kMysql, true);
  engine::Engine cached(Dialect::kMysql, true);
  DatabaseSpec sdb = RejectingDb();
  sdb.tables[1].name = "t1";  // the second CREATE TABLE fails
  const LoadOutcome expected = Reference(&reference, sdb);
  ASSERT_NE(expected.status, Status::OK().ToString());
  for (int i = 0; i < 2; ++i) {
    const LoadOutcome failed = Cached(&cached, sdb);
    EXPECT_EQ(failed, expected);
    EXPECT_EQ(failed.statements, expected.statements);
  }
}

TEST(LoadSnapshotExactness, StatementsAfterARestoreLeaveTheSnapshot) {
  engine::Engine reference(Dialect::kPostgis, true);
  engine::Engine cached(Dialect::kPostgis, true);
  const DatabaseSpec sdb = RejectingDb();
  const LoadOutcome expected = Reference(&reference, sdb);
  ASSERT_EQ(Cached(&cached, sdb), expected);
  ASSERT_EQ(Cached(&cached, sdb).statements, 0u);
  ASSERT_TRUE(
      cached.Execute("INSERT INTO t1 (g) VALUES ('POINT(5 5)');").ok());
  ASSERT_TRUE(cached.Execute("DROP TABLE t2;").ok());
  const LoadOutcome restored = Cached(&cached, sdb);
  EXPECT_EQ(restored.statements, 0u);
  EXPECT_EQ(restored, expected);
}

// --- Count queries on a restored database -----------------------------------
//
// A restore lends the engine the snapshot's result store for the rows it
// installs: a count query run there is recorded, and a repeat replays the
// record. The reference is an engine loaded by statements, which restores
// nothing and so replays nothing: every run must leave what running the
// query there leaves.

// The statements one query's oracles run on SDB1: the base query (diff's,
// index's, EET's and AEI's r1), TLP's three partitions and EET's variants.
std::vector<sql::StatementPtr> OracleStatements(const QuerySpec& query,
                                                Dialect dialect,
                                                double distance_bound) {
  std::vector<sql::StatementPtr> out;
  out.push_back(query.ToStatement());
  for (int k = 0; k < 3; ++k) {
    sql::StatementPtr partition = query.ToStatement();
    sql::ExprPtr p = std::move(partition->condition);
    partition->condition = k == 0   ? std::move(p)
                           : k == 1 ? sql::Expr::MakeNot(std::move(p))
                                    : sql::Expr::MakeIsUnknown(std::move(p));
    out.push_back(std::move(partition));
  }
  const sql::StatementPtr base = query.ToStatement();
  for (int j = 0; j < eet::kNumEetTransforms; ++j) {
    const auto id = static_cast<eet::TransformId>(j);
    if (!eet::TransformAppliesTo(id, dialect)) continue;
    if (sql::StatementPtr variant = eet::ApplyTransform(id, *base,
                                                        distance_bound)) {
      out.push_back(std::move(variant));
    }
  }
  return out;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Instance().GetCounter(name)->Value();
}

// Everything one statement leaves that an oracle or the campaign reads.
struct QueryOutcome {
  std::string result;  // the count, or the failed status
  std::map<size_t, uint64_t> coverage;
  std::vector<uint32_t> trace;
  std::set<faults::FaultId> fault_hits;
  uint64_t pairs = 0;
  uint64_t replays = 0;  // engine.result_store.replay
  uint64_t records = 0;  // engine.result_store.record

  bool operator==(const QueryOutcome& o) const {
    return result == o.result && coverage == o.coverage && trace == o.trace &&
           fault_hits == o.fault_hits;
  }
};

std::ostream& operator<<(std::ostream& os, const QueryOutcome& o) {
  return os << o.result << ", " << o.coverage.size() << " sites, "
            << o.fault_hits.size() << " fault ids, " << o.pairs << " pairs";
}

QueryOutcome RunQuery(engine::Engine* engine, const sql::Statement& stmt) {
  auto& registry = CoverageRegistry::Instance();
  engine->fault_state().ClearHits();
  const uint64_t pairs = engine->stats().pairs_evaluated;
  const uint64_t replays = CounterValue("engine.result_store.replay");
  const uint64_t records = CounterValue("engine.result_store.record");
  const std::vector<uint64_t> before = registry.SnapshotHits();
  CoverageRegistry::BeginTrace();
  const Result<engine::ExecResult> result = engine->Execute(stmt);
  QueryOutcome out;
  out.trace = CoverageRegistry::TakeTrace();
  const std::vector<uint64_t> after = registry.SnapshotHits();
  for (size_t i = 0; i < after.size(); ++i) {
    const uint64_t was = i < before.size() ? before[i] : 0;
    if (after[i] != was) out.coverage[i] = after[i] - was;
  }
  out.result = result.ok() ? result.value().ToString()
                           : result.status().ToString();
  out.fault_hits = engine->fault_state().TakeHits();
  out.pairs = engine->stats().pairs_evaluated - pairs;
  out.replays = CounterValue("engine.result_store.replay") - replays;
  out.records = CounterValue("engine.result_store.record") - records;
  return out;
}

TEST(LoadSnapshotExactness, RepeatedCountQueriesLeaveWhatTheyRanLeaves) {
  const std::vector<DatabaseSpec> specs = SnapshotSpecs();
  Rng rng(35);
  size_t records = 0;
  for (int d = 0; d < engine::kNumDialects; ++d) {
    const auto dialect = static_cast<Dialect>(d);
    for (bool faults : {false, true}) {
      engine::Engine reference(dialect, faults);
      engine::Engine cached(dialect, faults);
      GeneratorConfig config;
      GeometryAwareGenerator gen(config, &rng, &reference);
      for (DatabaseSpec sdb : specs) {
        for (bool with_index : {false, true}) {
          sdb.with_index = with_index;
          const QuerySpec query = gen.RandomQuery(sdb);
          const auto statements = OracleStatements(
              query, dialect,
              DistanceBound(&cached, sdb, query.table1, query.table2));
          const RowMask keep = RandomKeep(sdb, &rng);
          for (const RowMask* mask : {&keep, static_cast<const RowMask*>(
                                                 nullptr)}) {
            SCOPED_TRACE(std::string(engine::DialectName(dialect)) +
                         (faults ? " faulty" : " fixed") +
                         (with_index ? " indexed " : " plain ") +
                         (mask ? "filtered " : "") + query.ToSql());
            RowMask accepted;
            ASSERT_TRUE(ReferenceLoad(&reference, sdb, &accepted, mask).ok());
            // Build the snapshot, then restore it: the restore lends the
            // store of the rows it installs.
            ASSERT_TRUE(LoadDatabase(&cached, sdb, nullptr).ok());
            ASSERT_TRUE(LoadDatabase(&cached, sdb, nullptr, mask).ok());
            // TLP's P partition is the base query, so its first run
            // replays already.
            for (const sql::StatementPtr& stmt : statements) {
              const QueryOutcome expected = RunQuery(&reference, *stmt);
              const QueryOutcome first = RunQuery(&cached, *stmt);
              const QueryOutcome second = RunQuery(&cached, *stmt);
              EXPECT_EQ(first, expected) << sql::PrintStatement(*stmt);
              EXPECT_EQ(second, expected) << sql::PrintStatement(*stmt);
              EXPECT_EQ(first.records + first.replays, 1u);
              if (first.records == 1) {
                EXPECT_EQ(first.pairs, expected.pairs);
              }
              EXPECT_EQ(second.pairs, 0u);
              EXPECT_EQ(second.replays, 1u);
              EXPECT_EQ(second.records, 0u);
              records += first.records;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(records, 0u);
}

TEST(LoadSnapshotExactness, CountQueriesRunAgainAfterTheDatabaseChanges) {
  const DatabaseSpec sdb = SnapshotSpecs()[1];
  QuerySpec query;
  query.table1 = sdb.tables[0].name;
  query.table2 = sdb.tables[1].name;
  query.predicate = "ST_Intersects";
  const sql::StatementPtr stmt = query.ToStatement();
  const std::string t1 = sdb.tables[0].name;
  const std::vector<std::pair<std::string, std::function<void(
                                               engine::Engine*)>>>
      changes = {
          {"INSERT",
           [&](engine::Engine* e) {
             ASSERT_TRUE(e->Execute("INSERT INTO " + t1 +
                                    " (g) VALUES ('POINT(1 2)');")
                             .ok());
           }},
          {"DROP",
           [&](engine::Engine* e) {
             ASSERT_TRUE(e->Execute("DROP TABLE " + t1 + ";").ok());
           }},
          {"CREATE",
           [](engine::Engine* e) {
             ASSERT_TRUE(e->Execute("CREATE TABLE t9 (g geometry);").ok());
           }},
          {"SET",
           [](engine::Engine* e) {
             ASSERT_TRUE(e->Execute("SET @x = 1;").ok());
           }},
          {"InsertValue",
           [&](engine::Engine* e) {
             ASSERT_TRUE(e->InsertValue(t1, "g",
                                        engine::Value::String("POINT(2 1)"))
                             .ok());
           }},
          {"Reset", [](engine::Engine* e) { e->Reset(); }},
      };
  engine::Engine reference(Dialect::kPostgis, true);
  engine::Engine cached(Dialect::kPostgis, true);
  ASSERT_TRUE(LoadDatabase(&cached, sdb, nullptr).ok());
  for (const auto& [name, change] : changes) {
    SCOPED_TRACE(name);
    RowMask accepted;
    ASSERT_TRUE(ReferenceLoad(&reference, sdb, &accepted, nullptr).ok());
    ASSERT_TRUE(LoadDatabase(&cached, sdb, nullptr).ok());
    EXPECT_EQ(RunQuery(&cached, *stmt), RunQuery(&reference, *stmt));
    // A scalar SELECT keeps the store.
    ASSERT_TRUE(cached.Execute("SELECT ST_AsText('POINT(0 0)');").ok());
    EXPECT_EQ(RunQuery(&cached, *stmt).replays, 1u);
    change(&reference);
    change(&cached);
    const QueryOutcome after = RunQuery(&cached, *stmt);
    EXPECT_EQ(after, RunQuery(&reference, *stmt));
    EXPECT_EQ(after.replays, 0u);
    EXPECT_EQ(after.records, 0u);
    if (name != "DROP" && name != "Reset") {
      EXPECT_GT(after.pairs, 0u);
    }
  }
}

TEST(LoadSnapshotExactness, ResultStoreKeysTellApartRowsIndexFaultsAndZeros) {
  const DatabaseSpec plain = SnapshotSpecs()[1];
  QuerySpec query;
  query.table1 = plain.tables[0].name;
  query.table2 = plain.tables[1].name;
  query.predicate = "ST_DWithin";
  query.extra = engine::PredicateExtra::kDistance;
  query.distance = 0.0;
  const sql::StatementPtr stmt = query.ToStatement();
  engine::Engine cached(Dialect::kPostgis, true);
  engine::Engine reference(Dialect::kPostgis, true);
  // Each load restores (after the first builds its snapshot), and each
  // query first records, then replays.
  auto expect = [&](const DatabaseSpec& sdb, const RowMask* keep,
                    uint64_t records) {
    RowMask accepted;
    ASSERT_TRUE(LoadDatabase(&cached, sdb, nullptr).ok());
    ASSERT_TRUE(LoadDatabase(&cached, sdb, nullptr, keep).ok());
    ASSERT_TRUE(ReferenceLoad(&reference, sdb, &accepted, keep).ok());
    const QueryOutcome got = RunQuery(&cached, *stmt);
    EXPECT_EQ(got, RunQuery(&reference, *stmt));
    EXPECT_EQ(got.records, records);
    EXPECT_EQ(got.replays, 1 - records);
  };
  RowMask first_row_only;
  for (const TableSpec& table : plain.tables) {
    std::vector<bool> mask(table.rows.size(), false);
    mask.at(0) = true;
    first_row_only.push_back(std::move(mask));
  }
  // Two effective row sets: all rows, and each table's first.
  expect(plain, nullptr, 1);
  expect(plain, &first_row_only, 1);
  expect(plain, nullptr, 0);
  expect(plain, &first_row_only, 0);
  // The same rows with an index.
  DatabaseSpec indexed = plain;
  indexed.with_index = true;
  expect(indexed, nullptr, 1);
  expect(indexed, nullptr, 0);
  expect(plain, nullptr, 0);

  // Another enabled set between runs on the same restored database.
  ASSERT_TRUE(LoadDatabase(&cached, plain, nullptr).ok());
  RowMask accepted;
  ASSERT_TRUE(ReferenceLoad(&reference, plain, &accepted, nullptr).ok());
  EXPECT_EQ(RunQuery(&cached, *stmt).replays, 1u);
  for (engine::Engine* e : {&cached, &reference}) {
    e->fault_state().Disable(faults::FaultId::kPostgisDWithinNegativeCoords);
  }
  const QueryOutcome disabled = RunQuery(&cached, *stmt);
  EXPECT_EQ(disabled, RunQuery(&reference, *stmt));
  EXPECT_EQ(disabled.records, 1u);
  for (engine::Engine* e : {&cached, &reference}) {
    e->fault_state().Enable(faults::FaultId::kPostgisDWithinNegativeCoords);
  }
  EXPECT_EQ(RunQuery(&cached, *stmt).replays, 1u);

  // -0 and 0 print alike, yet are two statements.
  QuerySpec negative = query;
  negative.distance = -0.0;
  const sql::StatementPtr negative_stmt = negative.ToStatement();
  ASSERT_EQ(negative.ToSql(), query.ToSql());
  const QueryOutcome zero = RunQuery(&cached, *negative_stmt);
  EXPECT_EQ(zero, RunQuery(&reference, *negative_stmt));
  EXPECT_EQ(zero.records, 1u);
  EXPECT_EQ(zero.replays, 0u);
}

// A store lives as long as its SDB1's state. Once another SDB1 replaces
// the state, a count query on the tables still installed runs, reading no
// freed store (the ASan+UBSan build catches a read).
TEST(LoadSnapshotExactness, CountQueriesRunOnceTheirStoreIsGone) {
  const std::vector<DatabaseSpec> specs = SnapshotSpecs();
  const DatabaseSpec& sdb = specs[1];
  QuerySpec query;
  query.table1 = sdb.tables[0].name;
  query.table2 = sdb.tables[1].name;
  query.predicate = "ST_Intersects";
  const sql::StatementPtr stmt = query.ToStatement();
  engine::Engine cached(Dialect::kPostgis, true);
  ASSERT_TRUE(LoadDatabase(&cached, sdb, nullptr).ok());
  ASSERT_TRUE(LoadDatabase(&cached, sdb, nullptr).ok());
  const QueryOutcome recorded = RunQuery(&cached, *stmt);
  ASSERT_EQ(recorded.records, 1u);
  DistanceBound(&cached, specs[2], specs[2].tables[0].name,
                specs[2].tables[0].name);
  const QueryOutcome after = RunQuery(&cached, *stmt);
  EXPECT_EQ(after, recorded);
  EXPECT_EQ(after.pairs, recorded.pairs);
  EXPECT_EQ(after.replays, 0u);
  EXPECT_EQ(after.records, 0u);
}


// --- Typed affine loads -----------------------------------------------------
//
// AffinePair builds SDB2 from typed rows. The reference is the text path:
// TransformDatabase prints SDB2 and LoadDatabase loads it on a fresh
// engine. A typed load must leave the same tables row for row, with
// coordinates compared by bits, and the same masks, coverage counts, fault
// ids and statement count.

// The engine's tables with each geometry as WKB hex, so -0 and +0 differ.
std::map<std::string, std::string> TableBits(const engine::Engine& engine) {
  std::map<std::string, std::string> out;
  for (const auto& [name, table] : engine.tables()) {
    std::string& desc = out[name];
    desc = std::string(table.has_index ? "indexed" : "plain") + " g" +
           std::to_string(table.geometry_column);
    for (const engine::Row& row : table.rows) {
      for (const engine::Value& v : row) {
        desc += " | ";
        if (v.kind() != engine::Value::Kind::kGeometry || !v.geometry()) {
          desc += v.ToDisplayString();
          continue;
        }
        desc += geom::WriteWkbHex(*v.geometry());
        if (v.valid_checked()) desc += " checked";
      }
    }
  }
  return out;
}

// LoadOutcome plus the tables by bits. Statement counts are compared
// where both sides run statements, not against a restore.
struct TypedOutcome {
  LoadOutcome load;
  std::map<std::string, std::string> bits;

  bool operator==(const TypedOutcome& o) const {
    return load == o.load && bits == o.bits;
  }
};

std::ostream& operator<<(std::ostream& os, const TypedOutcome& o) {
  os << o.load << "\n  " << o.load.statements << " statements";
  for (const auto& [name, desc] : o.bits) os << "\n  " << name << ": " << desc;
  return os;
}

template <typename Load>
TypedOutcome ObserveBits(engine::Engine* engine, Load load) {
  TypedOutcome out;
  out.load = Observe(engine, load);
  out.bits = TableBits(*engine);
  return out;
}

// SDB2 through the text path, on a fresh engine. With `print`,
// TransformDatabase runs inside the observed load, as a typed load's
// canonicalization does when the pair is built inside it.
TypedOutcome TextImage(Dialect dialect, bool faults, const DatabaseSpec& sdb1,
                       const algo::AffineTransform& transform,
                       const RowMask* keep, bool print) {
  engine::Engine fresh(dialect, faults);
  DatabaseSpec sdb2;
  if (!print) sdb2 = TransformDatabase(sdb1, transform, true);
  return ObserveBits(&fresh, [&](RowMask* accepted) {
    if (print) sdb2 = TransformDatabase(sdb1, transform, true);
    return LoadDatabase(&fresh, sdb2, accepted, keep);
  });
}

// One row per rule that keeps the typed path to ReadWkt(ToWkt(g)) and that
// a WKT row can reach: -0 after the transform (kNegativeZero keeps the
// signs), coordinates that overflow to inf under a scale, WKT that does not
// parse (copied through raw) and a quote inside it. The structural rules
// (an empty shell with holes, an empty hole, a wrongly typed MULTI*
// element) never come out of ReadWkt and Canonicalize; WktNormalize.*
// (wkt_test) pins them at NormalizeForWkt and EngineTypedInsert.*
// (engine_test) at the engine.
DatabaseSpec RoundTripDb() {
  DatabaseSpec sdb;
  sdb.tables.push_back(TableSpec{
      "t1",
      {"POINT(-0 -0)", "LINESTRING(-0 -1,2 -0)", "POINT(1e308 -1e308)",
       "POLYGON((0 0,1e308 0,1e308 1e308,0 0))", "POINT(1"}});
  sdb.tables.push_back(TableSpec{
      "t2",
      {"POINT('1 1)", "MULTIPOINT((-0 -0),(1 1))",
       "GEOMETRYCOLLECTION(POINT(-0 -0),LINESTRING(0 0,1 1))",
       "POINT(1.5 -0)"}});
  return sdb;
}

// -0 in, -0 out: a11 * -0 + a12 * -0 + -0 is -0.
const algo::AffineTransform kNegativeZero(1, 0, 0, 1, -0.0, -0.0);

std::vector<DatabaseSpec> AffineSpecs() {
  std::vector<DatabaseSpec> specs = SnapshotSpecs();
  specs.push_back(RoundTripDb());
  corpus::MutationEngine mutator;
  Rng rng(77);
  for (size_t i = 1; i < 4; ++i) {
    specs.push_back(mutator.MutateDatabase(specs[i], &rng));
  }
  return specs;
}

TEST(LoadSnapshotExactness, TypedAffineLoadEqualsTheStatementPath) {
  const std::vector<DatabaseSpec> specs = AffineSpecs();
  obs::LatencyHistogram* typed_loads =
      obs::MetricsRegistry::Instance().GetHistogram("engine.typed_load");
  const uint64_t typed_before = typed_loads->count();
  Rng rng(4242);
  size_t checks = 0;
  for (int d = 0; d < engine::kNumDialects; ++d) {
    for (bool faults : {false, true}) {
      const auto dialect = static_cast<Dialect>(d);
      engine::Engine typed(dialect, faults);
      for (DatabaseSpec sdb : specs) {
        for (bool with_index : {false, true}) {
          sdb.with_index = with_index;
          const std::vector<algo::AffineTransform> transforms = {
              algo::AffineTransform::Identity(), kNegativeZero,
              algo::AffineTransform(3, 1, -2, 4, 5, -6),
              algo::AffineTransform(0, -2, 2, 0, 7, 3),
              RandomIntegerAffine(&rng), RandomIntegerSimilarity(&rng)};
          for (const algo::AffineTransform& t : transforms) {
            SCOPED_TRACE(std::string(engine::DialectName(dialect)) +
                         (faults ? " faulty " : " fixed ") +
                         (with_index ? "indexed " : "plain ") + t.ToString() +
                         " " + sdb.tables[0].rows[0]);
            // The pair's construction canonicalizes (or replays it), so it
            // is inside the observed load, as TransformDatabase is.
            std::optional<AffinePair> pair;
            const TypedOutcome built =
                ObserveBits(&typed, [&](RowMask* accepted) {
                  pair.emplace(&typed, sdb, t);
                  return pair->LoadImage(accepted);
                });
            const TypedOutcome expected =
                TextImage(dialect, faults, sdb, t, nullptr, true);
            ASSERT_EQ(built, expected);
            ASSERT_EQ(built.load.statements, expected.load.statements);
            checks++;
            for (int k = 0; k < 2; ++k) {
              const RowMask keep = RandomKeep(sdb, &rng);
              const TypedOutcome restored = ObserveBits(
                  &typed, [&](RowMask* a) { return pair->LoadImage(a, &keep); });
              EXPECT_EQ(restored,
                        TextImage(dialect, faults, sdb, t, &keep, false));
            }
            // A filtered load before any unfiltered one runs the rows.
            const RowMask keep = RandomKeep(sdb, &rng);
            std::optional<AffinePair> cold;
            const TypedOutcome filtered =
                ObserveBits(&typed, [&](RowMask* accepted) {
                  cold.emplace(&typed, sdb, t);
                  return cold->LoadImage(accepted, &keep);
                });
            const TypedOutcome cold_expected =
                TextImage(dialect, faults, sdb, t, &keep, true);
            EXPECT_EQ(filtered, cold_expected);
            EXPECT_EQ(filtered.load.statements,
                      cold_expected.load.statements);
          }
        }
      }
    }
  }
  EXPECT_GT(checks, 0u);
  EXPECT_GT(typed_loads->count(), typed_before);
}

// The AEI check as it ran on the text path: TransformDatabase, and both
// databases through LoadDatabase. The typed check is held to it.
OracleOutcome TextAffineCheck(engine::Engine* engine, const DatabaseSpec& sdb1,
                              const QuerySpec& query,
                              const algo::AffineTransform& transform) {
  engine->fault_state().ClearHits();
  OracleOutcome out;
  SPATTER_COV("oracle", "aei_check");
  const DatabaseSpec sdb2 = TransformDatabase(sdb1, transform, true);
  RowMask keep;
  RowMask mask2;
  Status loaded = LoadDatabase(engine, sdb1, &keep);
  if (loaded.ok()) loaded = LoadDatabase(engine, sdb2, &mask2);
  if (!loaded.ok()) {
    out.crash = loaded.code() == StatusCode::kCrash;
    out.detail = loaded.ToString();
    out.fault_hits = engine->fault_state().TakeHits();
    return out;
  }
  for (size_t t = 0; t < keep.size(); ++t) {
    for (size_t r = 0; r < keep[t].size(); ++r) {
      keep[t][r] = keep[t][r] && mask2[t][r];
    }
  }
  QuerySpec query2 = query;
  if ((query.extra == engine::PredicateExtra::kDistance ||
       query.predicate == "~=") &&
      !transform.IsIdentity()) {
    const auto scale = SimilarityScale(transform);
    if (!scale) {
      out.applicable = false;
      out.fault_hits = engine->fault_state().TakeHits();
      return out;
    }
    query2.distance = query.distance * *scale;
  }
  CountRun r1;
  CountRun r2;
  if (LoadDatabase(engine, sdb1, nullptr, &keep).ok()) {
    r1 = ReadCount(engine->Execute(query.ToSql()));
    if (LoadDatabase(engine, sdb2, nullptr, &keep).ok()) {
      r2 = ReadCount(engine->Execute(query2.ToSql()));
      if (AllCounted({r1, r2}, &out) && r1.count != r2.count) {
        out.mismatch = true;
        out.detail = "{" + std::to_string(r1.count) + "} vs {" +
                     std::to_string(r2.count) + "}";
        SPATTER_COV("oracle", "aei_mismatch");
      }
    }
  }
  out.fault_hits = engine->fault_state().TakeHits();
  return out;
}

// Coverage counts added by `run`, by site.
template <typename Run>
std::map<size_t, uint64_t> CoverageOf(Run run) {
  auto& registry = CoverageRegistry::Instance();
  const std::vector<uint64_t> before = registry.SnapshotHits();
  run();
  const std::vector<uint64_t> after = registry.SnapshotHits();
  std::map<size_t, uint64_t> out;
  for (size_t i = 0; i < after.size(); ++i) {
    const uint64_t was = i < before.size() ? before[i] : 0;
    if (after[i] != was) out[i] = after[i] - was;
  }
  return out;
}

// The first AEI check on an SDB1 canonicalizes it and records what that
// did; every later one replays the record. Each check's coverage must
// equal the text path's, which canonicalizes every time, including after
// EET built the derived state first and after another SDB1 replaced it.
TEST(LoadSnapshotExactness, CanonicalizationReplaysEachCheck) {
  const std::vector<DatabaseSpec> specs = AffineSpecs();
  Rng rng(99);
  for (int d = 0; d < engine::kNumDialects; ++d) {
    const auto dialect = static_cast<Dialect>(d);
    engine::Engine typed(dialect, true);
    engine::Engine text(dialect, true);
    GeneratorConfig config;
    GeometryAwareGenerator gen(config, &rng, &typed);
    for (const DatabaseSpec& sdb : {specs[1], specs[2], specs[1], specs[4]}) {
      // EET reads the derived state (parsed rows only) before any AEI.
      DistanceBound(&typed, sdb, sdb.tables[0].name, sdb.tables[0].name);
      for (int q = 0; q < 6; ++q) {
        const QuerySpec query = gen.RandomQuery(sdb);
        OracleCtx ctx;
        ctx.transform = q % 3 == 0 ? algo::AffineTransform::Identity()
                        : q % 3 == 1 ? RandomIntegerAffine(&rng)
                                     : RandomIntegerSimilarity(&rng);
        SCOPED_TRACE(std::string(engine::DialectName(dialect)) + " " +
                     query.ToSql() + " under " + ctx.transform.ToString());
        OracleOutcome got;
        OracleOutcome want;
        const auto got_cov = CoverageOf(
            [&] { got = AeiOracle().Check(&typed, sdb, query, ctx); });
        const auto want_cov = CoverageOf([&] {
          want = TextAffineCheck(&text, sdb, query, ctx.transform);
        });
        EXPECT_EQ(got_cov, want_cov);
        EXPECT_EQ(got.applicable, want.applicable);
        EXPECT_EQ(got.mismatch, want.mismatch);
        EXPECT_EQ(got.crash, want.crash);
        EXPECT_EQ(got.detail, want.detail);
        EXPECT_EQ(got.fault_hits, want.fault_hits);
      }
    }
  }
}

// Canonicalization belongs to the AEI family: a suite without aei or canon
// hits no canon/* site, and one with aei does.
TEST(LoadSnapshotExactness, OnlyTheAffineOraclesCanonicalize) {
  auto& registry = CoverageRegistry::Instance();
  for (const char* oracles : {"diff,index,tlp,eet", "aei"}) {
    auto suite = ParseOracleSuite(oracles);
    ASSERT_TRUE(suite.ok());
    size_t canon_sites = 0;
    for (int d = 0; d < engine::kNumDialects; ++d) {
      CampaignConfig config;
      config.dialect = static_cast<Dialect>(d);
      config.seed = 31;
      config.iterations = 2;
      config.queries_per_iteration = 10;
      config.oracles = suite.value();
      Campaign campaign(config);
      CampaignResult result;
      for (size_t i = 0; i < config.iterations; ++i) {
        CoverageRegistry::BeginTrace();
        campaign.RunIterationAt(i, &result);
        const std::vector<uint32_t> trace = CoverageRegistry::TakeTrace();
        canon_sites += registry.KeysOf(trace).size() -
                       registry.KeysOf(trace, {"canon"}).size();
      }
    }
    if (std::string(oracles) == "aei") {
      EXPECT_GT(canon_sites, 0u);
    } else {
      EXPECT_EQ(canon_sites, 0u) << oracles;
    }
  }
}

}  // namespace
}  // namespace spatter::fuzz
