// Fuzzer tests: generator, AEI construction, oracles, campaign, reducer.
// The most important property checked here: a campaign against a FIXED
// engine reports no discrepancies (the oracle never false-alarms on our
// own semantics), while a campaign against a FAULTY engine finds bugs.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "common/coverage.h"
#include "fuzz/aei.h"
#include "sql/parser.h"
#include "fuzz/campaign.h"
#include "fuzz/generator.h"
#include "fuzz/oracles.h"
#include "fuzz/reducer.h"
#include "geom/wkt_reader.h"

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
  const Result<RowMask> keep = AcceptedByBoth(&pg, sdb, other);
  ASSERT_TRUE(keep.ok());
  EXPECT_EQ(keep.value()[0], (std::vector<bool>{false, false, true}));
  ASSERT_TRUE(LoadDatabase(&pg, sdb, &accepted, &keep.value()).ok());
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

// The relate memo records a kernel run on a pair's second sighting. When
// that happens inside a snapshot build (the validity check of a repeated
// collection), the INSERT's capture must see the run's hits too: captures
// nest. The collection is unique to this test, so the memo starts cold.
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

  // The same rows under another table name.
  DatabaseSpec renamed = sdb;
  renamed.tables[0].name = "t9";
  const LoadOutcome other_name = Cached(&cached, renamed);
  EXPECT_GT(other_name.statements, 0u);
  EXPECT_EQ(other_name, Reference(&reference, renamed));
  EXPECT_NE(cached.FindTable("t9"), nullptr);
  EXPECT_EQ(cached.FindTable("t1"), nullptr);

  // All four are still cached: two under each fault mask.
  auto expect_restored = [&](const DatabaseSpec& spec) {
    const LoadOutcome again = Cached(&cached, spec);
    EXPECT_EQ(again.statements, 0u);
    EXPECT_EQ(again, Reference(&reference, spec));
  };
  expect_restored(sdb);
  expect_restored(renamed);
  for (engine::Engine* e : {&reference, &cached}) {
    e->fault_state().Enable(faults::FaultId::kGeosGcBoundaryLastOneWins);
  }
  expect_restored(sdb);
  expect_restored(indexed);
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

}  // namespace
}  // namespace spatter::fuzz
