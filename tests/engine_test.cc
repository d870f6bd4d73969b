// Engine tests: DDL/DML, joins (nested loop, index, prepared paths),
// scalar functions, dialect surfaces, validity policies, three-valued
// logic. All with faults disabled; injected behaviour is in faults_test.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/coverage.h"
#include "common/rng.h"
#include "engine/functions.h"
#include "geom/wkb.h"
#include "geom/wkt_reader.h"

namespace spatter::engine {
namespace {

std::unique_ptr<Engine> Clean(Dialect d = Dialect::kPostgis) {
  return std::make_unique<Engine>(d, /*enable_faults=*/false);
}

int64_t Count(Engine* e, const std::string& sql) {
  auto r = e->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? r.value().count : -999;
}

std::string Scalar(Engine* e, const std::string& sql) {
  auto r = e->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? r.value().ToString() : "ERROR";
}

TEST(Engine, CreateInsertCount) {
  auto e = Clean();
  ASSERT_TRUE(e->Execute("CREATE TABLE t1 (g geometry);").ok());
  ASSERT_TRUE(
      e->Execute("INSERT INTO t1 (g) VALUES ('POINT(1 1)');").ok());
  ASSERT_TRUE(e->Execute("INSERT INTO t1 (g) VALUES ('POINT(2 2)'),"
                         "('LINESTRING(0 0,1 1)');")
                  .ok());
  EXPECT_EQ(Count(e.get(), "SELECT COUNT(*) FROM t1;"), 3);
}

TEST(Engine, ErrorsOnUnknownObjects) {
  auto e = Clean();
  EXPECT_EQ(e->Execute("SELECT COUNT(*) FROM missing;").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(e->Execute("SELECT ST_NoSuchFn('POINT(0 0)');").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(e->Execute("CREATE TABLE t (g geometry);").ok());
  EXPECT_FALSE(e->Execute("CREATE TABLE t (g geometry);").ok());
  EXPECT_FALSE(e->Execute("INSERT INTO t (nope) VALUES (1);").ok());
}

TEST(Engine, PaperListing1JoinShape) {
  // Listings 1 and 2: a correct engine returns 1 for both variants.
  for (const char* pair :
       {"'LINESTRING(0 1,2 0)' / 'POINT(0.2 0.9)'",
        "'LINESTRING(1 1,0 0)' / 'POINT(0.9 0.9)'"}) {
    (void)pair;
  }
  auto e = Clean();
  ASSERT_TRUE(e->ExecuteScript(
                   "CREATE TABLE t1 (g geometry);"
                   "CREATE TABLE t2 (g geometry);"
                   "INSERT INTO t1 (g) VALUES ('LINESTRING(0 1,2 0)');"
                   "INSERT INTO t2 (g) VALUES ('POINT(0.2 0.9)');")
                  .ok());
  EXPECT_EQ(Count(e.get(),
                  "SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Covers(t1.g,t2.g);"),
            1);
}

TEST(Engine, JoinCountsPairsBothDirections) {
  auto e = Clean();
  ASSERT_TRUE(e->ExecuteScript(
                   "CREATE TABLE a (g geometry);"
                   "CREATE TABLE b (g geometry);"
                   "INSERT INTO a (g) VALUES ('POINT(1 1)'),('POINT(5 5)');"
                   "INSERT INTO b (g) VALUES "
                   "('POLYGON((0 0,2 0,2 2,0 2,0 0))'),"
                   "('POLYGON((4 4,6 4,6 6,4 6,4 4))');")
                  .ok());
  EXPECT_EQ(Count(e.get(),
                  "SELECT COUNT(*) FROM a JOIN b ON ST_Within(a.g, b.g);"),
            2);
  EXPECT_EQ(Count(e.get(),
                  "SELECT COUNT(*) FROM b JOIN a ON ST_Contains(b.g, a.g);"),
            2);
  EXPECT_EQ(Count(e.get(),
                  "SELECT COUNT(*) FROM a JOIN b ON ST_Disjoint(a.g, b.g);"),
            2);
}

TEST(Engine, IndexAndSeqScanAgree) {
  for (bool with_index : {false, true}) {
    auto e = Clean();
    ASSERT_TRUE(e->ExecuteScript(
                     "CREATE TABLE a (g geometry);"
                     "CREATE TABLE b (g geometry);")
                    .ok());
    if (with_index) {
      ASSERT_TRUE(
          e->Execute("CREATE INDEX ib ON b USING GIST (g);").ok());
    }
    ASSERT_TRUE(e->ExecuteScript(
                     "INSERT INTO a (g) VALUES ('POINT(1 1)'),"
                     "('POINT(9 9)'),('POINT EMPTY');"
                     "INSERT INTO b (g) VALUES "
                     "('POLYGON((0 0,2 0,2 2,0 2,0 0))'),"
                     "('POLYGON((8 8,10 8,10 10,8 10,8 8))'),"
                     "('POINT EMPTY');")
                    .ok());
    EXPECT_EQ(
        Count(e.get(),
              "SELECT COUNT(*) FROM a JOIN b ON ST_Intersects(a.g, b.g);"),
        2)
        << "with_index=" << with_index;
    if (with_index) {
      EXPECT_GT(e->stats().index_scans, 0u);
    }
  }
}

TEST(Engine, PreparedPathMatchesGeneric) {
  auto e = Clean(Dialect::kPostgis);  // PostGIS uses prepared geometry.
  ASSERT_TRUE(e->ExecuteScript(
                   "CREATE TABLE a (g geometry);"
                   "CREATE TABLE b (g geometry);"
                   "INSERT INTO a (g) VALUES "
                   "('POLYGON((0 0,10 0,10 10,0 10,0 0))');"
                   "INSERT INTO b (g) VALUES ('POINT(5 5)'),"
                   "('POINT(20 20)'),('POINT(0 5)');")
                  .ok());
  EXPECT_EQ(Count(e.get(),
                  "SELECT COUNT(*) FROM a JOIN b ON ST_Contains(a.g, b.g);"),
            1);
  EXPECT_GT(e->stats().prepared_evaluations, 0u);
  // DuckDB Spatial has no prepared path; results must agree anyway.
  auto duck = Clean(Dialect::kDuckdbSpatial);
  ASSERT_TRUE(duck->ExecuteScript(
                   "CREATE TABLE a (g geometry);"
                   "CREATE TABLE b (g geometry);"
                   "INSERT INTO a (g) VALUES "
                   "('POLYGON((0 0,10 0,10 10,0 10,0 0))');"
                   "INSERT INTO b (g) VALUES ('POINT(5 5)'),"
                   "('POINT(20 20)'),('POINT(0 5)');")
                  .ok());
  EXPECT_EQ(Count(duck.get(),
                  "SELECT COUNT(*) FROM a JOIN b ON ST_Contains(a.g, b.g);"),
            1);
  EXPECT_EQ(duck->stats().prepared_evaluations, 0u);
}

TEST(Engine, ScalarFunctions) {
  auto e = Clean();
  EXPECT_EQ(Scalar(e.get(), "SELECT ST_Distance('MULTIPOINT((1 0),(0 0))'"
                            "::geometry, 'POINT(-2 0)'::geometry);"),
            "{2}");
  EXPECT_EQ(Scalar(e.get(),
                   "SELECT ST_Area('POLYGON((0 0,4 0,4 4,0 4,0 0))');"),
            "{16}");
  EXPECT_EQ(Scalar(e.get(), "SELECT ST_Length('LINESTRING(0 0,3 4)');"),
            "{5}");
  EXPECT_EQ(Scalar(e.get(), "SELECT ST_IsEmpty('POINT EMPTY');"), "{t}");
  EXPECT_EQ(Scalar(e.get(), "SELECT ST_Dimension('GEOMETRYCOLLECTION("
                            "POINT(0 0),POLYGON((0 0,1 0,1 1,0 0)))');"),
            "{2}");
  EXPECT_EQ(Scalar(e.get(), "SELECT ST_NumGeometries("
                            "'MULTIPOINT((1 1),(2 2))');"),
            "{2}");
  EXPECT_EQ(Scalar(e.get(), "SELECT ST_AsText(ST_Reverse("
                            "'LINESTRING(0 0,1 1)'));"),
            "{LINESTRING(1 1,0 0)}");
}

TEST(Engine, SessionVariables) {
  auto e = Clean(Dialect::kMysql);
  ASSERT_TRUE(
      e->Execute("SET @g1 = 'MULTILINESTRING((990 280,100 20))';").ok());
  ASSERT_TRUE(e->Execute("SET @g2 = 'POLYGON((360 60,850 620,850 420,360 "
                         "60))';")
                  .ok());
  EXPECT_EQ(Scalar(e.get(), "SELECT ST_Crosses(ST_GeomFromText(@g1), "
                            "ST_GeomFromText(@g2));"),
            "{t}");
  EXPECT_EQ(e->Execute("SELECT ST_IsEmpty(@missing);").status().code(),
            StatusCode::kNotFound);
}

TEST(Engine, DialectFunctionSurface) {
  // ST_Covers exists in PostGIS and DuckDB Spatial only (paper §1).
  EXPECT_TRUE(ResolveFunction("ST_Covers", Dialect::kPostgis).ok());
  EXPECT_TRUE(ResolveFunction("ST_Covers", Dialect::kDuckdbSpatial).ok());
  EXPECT_FALSE(ResolveFunction("ST_Covers", Dialect::kMysql).ok());
  EXPECT_FALSE(ResolveFunction("ST_Covers", Dialect::kSqlserver).ok());
  // ST_DFullyWithin is PostGIS-specific.
  EXPECT_TRUE(ResolveFunction("ST_DFullyWithin", Dialect::kPostgis).ok());
  EXPECT_FALSE(
      ResolveFunction("ST_DFullyWithin", Dialect::kDuckdbSpatial).ok());
  // SQL Server method naming resolves to the canonical function.
  const FunctionDef* fn = FindFunction("STIntersects");
  ASSERT_NE(fn, nullptr);
  EXPECT_STREQ(fn->name, "ST_Intersects");
  // Every dialect has a non-empty predicate list for the query template.
  for (Dialect d : {Dialect::kPostgis, Dialect::kDuckdbSpatial,
                    Dialect::kMysql, Dialect::kSqlserver}) {
    EXPECT_GE(PredicatesFor(d).size(), 8u);
  }
}

TEST(Engine, StrictDialectRejectsInvalidGeometry) {
  // Paper Listing 4: PostGIS/DuckDB consider the collection invalid
  // because two elements intersect; MySQL accepts it.
  const std::string gc =
      "GEOMETRYCOLLECTION(POLYGON((614 445,30 26,80 30,614 445)),"
      "POLYGON((190 1010,40 90,90 40,190 1010)))";
  auto pg = Clean(Dialect::kPostgis);
  auto r = pg->Execute("SELECT ST_IsEmpty('" + gc + "');");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidGeometry);

  auto my = Clean(Dialect::kMysql);
  EXPECT_TRUE(my->Execute("SELECT ST_IsEmpty('" + gc + "');").ok());

  // Self-intersecting polygons from the random-shape strategy likewise.
  auto bad = pg->Execute(
      "SELECT ST_Area('POLYGON((0 0,1 1,0 1,1 0,0 0))');");
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidGeometry);
}

TEST(Engine, InsertOfInvalidGeometryFailsInStrictDialect) {
  auto pg = Clean(Dialect::kPostgis);
  ASSERT_TRUE(pg->Execute("CREATE TABLE t (g geometry);").ok());
  EXPECT_FALSE(
      pg->Execute(
            "INSERT INTO t (g) VALUES ('POLYGON((0 0,1 1,0 1,1 0,0 0))');")
          .ok());
  EXPECT_EQ(Count(pg.get(), "SELECT COUNT(*) FROM t;"), 0);
  auto my = Clean(Dialect::kMysql);
  ASSERT_TRUE(my->Execute("CREATE TABLE t (g geometry);").ok());
  EXPECT_TRUE(
      my->Execute(
            "INSERT INTO t (g) VALUES ('POLYGON((0 0,1 1,0 1,1 0,0 0))');")
          .ok());
}

TEST(Engine, SameAsOperatorSemantics) {
  auto e = Clean();
  ASSERT_TRUE(e->ExecuteScript(
                   "CREATE TABLE t (g geometry);"
                   "INSERT INTO t (g) VALUES ('POINT EMPTY');")
                  .ok());
  // PostGIS `~=` compares bounding boxes; two empties agree (Listing 8's
  // expected result of 1).
  EXPECT_EQ(Count(e.get(), "SELECT COUNT(*) FROM t WHERE g ~= "
                           "'POINT EMPTY'::geometry;"),
            1);
  // MySQL has no ~= operator.
  auto my = Clean(Dialect::kMysql);
  ASSERT_TRUE(my->ExecuteScript(
                   "CREATE TABLE t (g geometry);"
                   "INSERT INTO t (g) VALUES ('POINT(1 1)');")
                  .ok());
  EXPECT_EQ(my->Execute(
                  "SELECT COUNT(*) FROM t WHERE g ~= 'POINT(1 1)'::geometry;")
                .status()
                .code(),
            StatusCode::kUnsupported);
}

TEST(Engine, ThreeValuedLogicInJoins) {
  auto e = Clean();
  ASSERT_TRUE(e->ExecuteScript(
                   "CREATE TABLE a (g geometry);"
                   "CREATE TABLE b (g geometry);"
                   "INSERT INTO a (g) VALUES ('POINT(0 0)'),('POINT EMPTY');"
                   "INSERT INTO b (g) VALUES ('POINT(0 0)');")
                  .ok());
  // ST_DWithin on an EMPTY operand yields NULL -> not counted by P or
  // NOT P, but counted by IS UNKNOWN: the TLP partitioning property.
  const int64_t p = Count(
      e.get(), "SELECT COUNT(*) FROM a JOIN b ON ST_DWithin(a.g, b.g, 1);");
  const int64_t n = Count(e.get(),
                          "SELECT COUNT(*) FROM a JOIN b ON NOT "
                          "ST_DWithin(a.g, b.g, 1);");
  const int64_t u = Count(e.get(),
                          "SELECT COUNT(*) FROM a JOIN b ON "
                          "ST_DWithin(a.g, b.g, 1) IS UNKNOWN;");
  EXPECT_EQ(p, 1);
  EXPECT_EQ(n, 0);
  EXPECT_EQ(u, 1);
  EXPECT_EQ(p + n + u, 2);
}

TEST(Engine, ResetClearsDataButKeepsStats) {
  auto e = Clean();
  ASSERT_TRUE(e->Execute("CREATE TABLE t (g geometry);").ok());
  const auto stmts = e->stats().statements_executed;
  e->Reset();
  EXPECT_EQ(e->tables().size(), 0u);
  EXPECT_EQ(e->stats().statements_executed, stmts);
  ASSERT_TRUE(e->Execute("CREATE TABLE t (g geometry);").ok());
}

TEST(Engine, ExecResultFormatting) {
  ExecResult count;
  count.kind = ExecResult::Kind::kCount;
  count.count = 7;
  EXPECT_EQ(count.ToString(), "{7}");
  ExecResult none;
  EXPECT_EQ(none.ToString(), "OK");
}

// --- Index path properties --------------------------------------------
//
// An index scan is the IndexAdmitsRow envelope filter over the table's
// rows in row order, with the injected index faults applied inline. Its
// counts and fault-firing sets are pinned by a golden hash across every
// dialect, over EMPTY and degenerate geometries and each injected index
// fault.

using faults::FaultId;

// Random row mix stressing every admission case: EMPTY (always admitted),
// origin-collapsed (dropped by the GiST fault), large coordinates (>= 512
// trips the grid fault's snapping), plus ordinary points/boxes.
std::string RandomIndexWkt(Rng* rng) {
  switch (rng->Below(8)) {
    case 0:
      return "POINT EMPTY";
    case 1:
      return "POINT(0 0)";
    case 2: {  // origin-degenerate line (envelope collapses onto 0,0)
      return "LINESTRING(0 0,0 0.000001)";
    }
    case 3: {  // large coordinates: the grid fault snaps probes >= 512
      const int64_t x = rng->IntIn(512, 1200);
      const int64_t y = rng->IntIn(512, 1200);
      return "POINT(" + std::to_string(x) + " " + std::to_string(y) + ")";
    }
    case 4: {  // large box straddling a 64-grid cell edge
      const int64_t x = rng->IntIn(8, 18) * 64 - 2;
      return "POLYGON((" + std::to_string(x) + " 600," +
             std::to_string(x + 4) + " 600," + std::to_string(x + 4) +
             " 604," + std::to_string(x) + " 604," + std::to_string(x) +
             " 600))";
    }
    case 5: {  // degenerate horizontal line
      const int64_t x = rng->IntIn(-20, 20);
      const int64_t y = rng->IntIn(-20, 20);
      return "LINESTRING(" + std::to_string(x) + " " + std::to_string(y) +
             "," + std::to_string(x + 3) + " " + std::to_string(y) + ")";
    }
    case 6: {
      const int64_t x = rng->IntIn(-30, 30);
      const int64_t y = rng->IntIn(-30, 30);
      return "POINT(" + std::to_string(x) + " " + std::to_string(y) + ")";
    }
    default: {
      const int64_t x = rng->IntIn(-30, 30);
      const int64_t y = rng->IntIn(-30, 30);
      const int64_t w = rng->IntIn(1, 8);
      return "POLYGON((" + std::to_string(x) + " " + std::to_string(y) +
             "," + std::to_string(x + w) + " " + std::to_string(y) + "," +
             std::to_string(x + w) + " " + std::to_string(y + w) + "," +
             std::to_string(x) + " " + std::to_string(y + w) + "," +
             std::to_string(x) + " " + std::to_string(y) + "))";
    }
  }
}

void LoadIndexedTables(Engine* e, const std::vector<std::string>& a_rows,
                       const std::vector<std::string>& b_rows) {
  ASSERT_TRUE(e->ExecuteScript("CREATE TABLE a (g geometry);"
                               "CREATE TABLE b (g geometry);"
                               "CREATE INDEX ia ON a USING GIST (g);"
                               "CREATE INDEX ib ON b USING GIST (g);")
                  .ok());
  for (const std::string& w : a_rows) {
    ASSERT_TRUE(
        e->Execute("INSERT INTO a (g) VALUES ('" + w + "');").ok());
  }
  for (const std::string& w : b_rows) {
    ASSERT_TRUE(
        e->Execute("INSERT INTO b (g) VALUES ('" + w + "');").ok());
  }
}

// FNV-1a, fed integers as little-endian bytes so the pinned value does
// not depend on the host.
struct Fnv1a {
  uint64_t h = 14695981039346656037ull;
  void Byte(unsigned char b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void Int(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      Byte(static_cast<unsigned char>(v >> (8 * i)));
    }
  }
  void Statement(const Result<ExecResult>& r) {
    Byte(r.ok());
    if (r.ok()) Int(static_cast<uint64_t>(r.value().count), 8);
  }
};

TEST(EngineIndexPath, IndexScanOutcomesArePinned) {
  // Every dialect runs an indexed ST_Intersects join, and PostGIS also
  // runs `~=` WHERE scans against EMPTY, origin, large-coordinate and
  // ordinary literals, once without faults and once under each injected
  // index fault. Each statement's ok flag and count, and the engine's
  // fault-hit set (fault hits feed bug deduplication), fold into one hash.
  const Dialect dialects[] = {Dialect::kPostgis, Dialect::kDuckdbSpatial,
                              Dialect::kMysql, Dialect::kSqlserver};
  const std::optional<FaultId> fault_cases[] = {
      std::nullopt, FaultId::kPostgisGistEmptySameAs,
      FaultId::kMysqlWithinIndexGrid, FaultId::kInjectedIndexScanShortcut};
  Fnv1a hash;
  std::set<FaultId> fired;
  for (Dialect d : dialects) {
    for (uint64_t seed : {11u, 22u, 33u}) {
      for (const auto& fault : fault_cases) {
        Rng rng(seed);
        std::vector<std::string> a_rows, b_rows;
        for (int i = 0; i < 16; ++i) a_rows.push_back(RandomIndexWkt(&rng));
        for (int i = 0; i < 24; ++i) b_rows.push_back(RandomIndexWkt(&rng));
        Engine e(d, /*enable_faults=*/false);
        if (fault) e.fault_state().Enable(*fault);
        LoadIndexedTables(&e, a_rows, b_rows);
        hash.Statement(e.Execute(
            "SELECT COUNT(*) FROM a JOIN b ON ST_Intersects(a.g, b.g);"));
        if (d == Dialect::kPostgis) {  // `~=` is PostGIS-only
          for (const char* lit :
               {"POINT EMPTY", "POINT(0 0)", "POINT(600 620)",
                "POLYGON((510 510,650 510,650 650,510 650,510 510))",
                "POINT(5 5)"}) {
            hash.Statement(e.Execute(
                std::string("SELECT COUNT(*) FROM b WHERE g ~= '") + lit +
                "'::geometry;"));
          }
        }
        const std::set<FaultId>& hits = e.fault_state().Hits();
        hash.Int(hits.size(), 8);
        for (FaultId id : hits) hash.Int(static_cast<uint32_t>(id), 4);
        fired.insert(hits.begin(), hits.end());
      }
    }
  }
  // The inputs trip every injected index fault, so the hash pins them.
  EXPECT_EQ(fired, (std::set<FaultId>{FaultId::kPostgisGistEmptySameAs,
                                      FaultId::kMysqlWithinIndexGrid,
                                      FaultId::kInjectedIndexScanShortcut}));
  EXPECT_EQ(hash.h, 0x20c44061a24140c5ull) << std::hex << "0x" << hash.h;
}

TEST(EngineIndexPath, IndexedAndUnindexedAgreeWithoutFaults) {
  for (Dialect d : {Dialect::kPostgis, Dialect::kDuckdbSpatial,
                    Dialect::kMysql, Dialect::kSqlserver}) {
    for (uint64_t seed : {7u, 8u}) {
      Rng rng(seed);
      std::vector<std::string> a_rows, b_rows;
      for (int i = 0; i < 12; ++i) a_rows.push_back(RandomIndexWkt(&rng));
      for (int i = 0; i < 18; ++i) b_rows.push_back(RandomIndexWkt(&rng));
      Engine indexed(d, /*enable_faults=*/false);
      LoadIndexedTables(&indexed, a_rows, b_rows);
      Engine plain(d, /*enable_faults=*/false);
      ASSERT_TRUE(plain
                      .ExecuteScript("CREATE TABLE a (g geometry);"
                                     "CREATE TABLE b (g geometry);")
                      .ok());
      for (const std::string& w : a_rows) {
        ASSERT_TRUE(
            plain.Execute("INSERT INTO a (g) VALUES ('" + w + "');").ok());
      }
      for (const std::string& w : b_rows) {
        ASSERT_TRUE(
            plain.Execute("INSERT INTO b (g) VALUES ('" + w + "');").ok());
      }
      const std::string join =
          "SELECT COUNT(*) FROM a JOIN b ON ST_Intersects(a.g, b.g);";
      auto r1 = indexed.Execute(join);
      auto r2 = plain.Execute(join);
      ASSERT_EQ(r1.ok(), r2.ok());
      if (r1.ok()) {
        EXPECT_EQ(r1.value().count, r2.value().count)
            << DialectName(d) << " seed=" << seed;
      }
      EXPECT_GT(indexed.stats().index_scans, 0u);
    }
  }
}

TEST(EngineIndexPath, CreateIndexBeforeOrAfterDataAgree) {
  // CREATE INDEX before the data and after the data must yield identical
  // scans.
  Rng rng(99);
  std::vector<std::string> rows;
  for (int i = 0; i < 40; ++i) rows.push_back(RandomIndexWkt(&rng));
  auto incremental = Clean();
  ASSERT_TRUE(incremental
                  ->ExecuteScript("CREATE TABLE b (g geometry);"
                                  "CREATE INDEX ib ON b USING GIST (g);")
                  .ok());
  for (const std::string& w : rows) {
    ASSERT_TRUE(
        incremental->Execute("INSERT INTO b (g) VALUES ('" + w + "');")
            .ok());
  }
  auto bulk = Clean();
  ASSERT_TRUE(bulk->Execute("CREATE TABLE b (g geometry);").ok());
  for (const std::string& w : rows) {
    ASSERT_TRUE(
        bulk->Execute("INSERT INTO b (g) VALUES ('" + w + "');").ok());
  }
  ASSERT_TRUE(bulk->Execute("CREATE INDEX ib ON b USING GIST (g);").ok());
  for (const char* lit :
       {"POINT EMPTY", "POINT(0 0)", "POINT(600 620)", "POINT(5 5)",
        "POLYGON((-10 -10,30 -10,30 30,-10 30,-10 -10))"}) {
    const std::string where =
        std::string("SELECT COUNT(*) FROM b WHERE g ~= '") + lit +
        "'::geometry;";
    EXPECT_EQ(Count(incremental.get(), where), Count(bulk.get(), where))
        << lit;
  }
}

// --- Statement cache ---------------------------------------------------

TEST(EngineStmtCache, CacheIsPassiveAndSurvivesReset) {
  auto cached = Clean();
  auto uncached = Clean();
  uncached->set_statement_cache_capacity(0);
  const std::vector<std::string> script = {
      "CREATE TABLE t (g geometry);",
      "INSERT INTO t (g) VALUES ('POINT(1 1)'),('POINT EMPTY');",
      "SELECT COUNT(*) FROM t;",
  };
  for (int round = 0; round < 3; ++round) {
    for (const std::string& sql : script) {
      auto r1 = cached->Execute(sql);
      auto r2 = uncached->Execute(sql);
      ASSERT_TRUE(r1.ok()) << sql;
      ASSERT_TRUE(r2.ok()) << sql;
      EXPECT_EQ(r1.value().ToString(), r2.value().ToString()) << sql;
    }
    // Reset drops tables but keeps the parse cache: the reload re-hits
    // the identical CREATE/INSERT text (the AEI hot path).
    cached->Reset();
    uncached->Reset();
  }
  EXPECT_EQ(cached->statement_cache_size(), script.size());
  EXPECT_EQ(uncached->statement_cache_size(), 0u);
}

TEST(EngineStmtCache, LruEvictionBoundsTheCache) {
  auto e = Clean();
  e->set_statement_cache_capacity(4);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        e->Execute("SELECT ST_IsEmpty('POINT(" + std::to_string(i) +
                   " 0)');")
            .ok());
  }
  EXPECT_EQ(e->statement_cache_size(), 4u);
  // Shrinking evicts down to the new bound.
  e->set_statement_cache_capacity(2);
  EXPECT_EQ(e->statement_cache_size(), 2u);
  e->set_statement_cache_capacity(0);
  EXPECT_EQ(e->statement_cache_size(), 0u);
}

// --- Compiled evaluator rules ---------------------------------------------
//
// Each statement's expressions are compiled once and then evaluated per
// row pair; these pin the rules the compile step must keep.

StatusCode CodeOf(Engine* e, const std::string& sql) {
  return e->Execute(sql).status().code();
}

TEST(EngineCompiled, UnresolvedNamesFailOnlyWhenEvaluated) {
  // MySQL: no prepared path, and no ST_Covers.
  auto e = Clean(Dialect::kMysql);
  ASSERT_TRUE(e->ExecuteScript(
                   "CREATE TABLE a (g geometry);"
                   "CREATE TABLE b (g geometry);"
                   "CREATE TABLE z (g geometry);"
                   "INSERT INTO a (g) VALUES ('POINT(1 1)'),('POINT(2 2)');"
                   "INSERT INTO b (g) VALUES ('POINT(1 1)');")
                  .ok());
  const struct {
    const char* on;  // `%` stands for the outer table
    StatusCode code;
  } cases[] = {
      {"ST_NoSuchFn(%.g, b.g)", StatusCode::kNotFound},
      {"ST_Covers(%.g, b.g)", StatusCode::kUnsupported},
      {"ST_Intersects(%.nope, b.g)", StatusCode::kNotFound},
      {"ST_Intersects(nope.g, b.g)", StatusCode::kNotFound},
      {"ST_Intersects(%.g, @missing)", StatusCode::kNotFound},
      {"NOT ST_Intersects(%.g, g)", StatusCode::kNotFound},
  };
  auto join = [](const std::string& outer, std::string on) {
    for (size_t at = on.find('%'); at != std::string::npos;
         at = on.find('%')) {
      on.replace(at, 1, outer);
    }
    return "SELECT COUNT(*) FROM " + outer + " JOIN b ON " + on + ";";
  };
  for (const auto& c : cases) {
    EXPECT_EQ(Count(e.get(), join("z", c.on)), 0) << join("z", c.on);
    EXPECT_EQ(CodeOf(e.get(), join("a", c.on)), c.code) << join("a", c.on);
  }
  // A derived-table filter and a WHERE fail the same way, only on rows.
  EXPECT_EQ(Count(e.get(), "SELECT COUNT(*) FROM z WHERE ST_NoSuchFn(g);"), 0);
  EXPECT_EQ(CodeOf(e.get(), "SELECT COUNT(*) FROM a WHERE ST_NoSuchFn(g);"),
            StatusCode::kNotFound);
}

TEST(EngineCompiled, SelfJoinBindsOnlyTheOuterRow) {
  for (Dialect d : {Dialect::kMysql, Dialect::kDuckdbSpatial}) {
    auto e = Clean(d);
    ASSERT_TRUE(e->ExecuteScript(
                     "CREATE TABLE t (g geometry);"
                     "CREATE TABLE u (g geometry);"
                     "INSERT INTO t (g) VALUES ('POINT(0 0)'),('POINT(1 1)'),"
                     "('POINT(2 2)');"
                     "INSERT INTO u (g) VALUES ('POINT(0 0)'),('POINT(1 1)'),"
                     "('POINT(2 2)');")
                    .ok());
    // Both arguments read the outer row, so every one of the 3 x 3 pairs
    // is equal to itself; a two-table join matches the diagonal only.
    EXPECT_EQ(Count(e.get(),
                    "SELECT COUNT(*) FROM t JOIN t ON ST_Equals(t.g, t.g);"),
              9);
    EXPECT_EQ(Count(e.get(),
                    "SELECT COUNT(*) FROM t JOIN t ON ST_Disjoint(t.g, t.g);"),
              0);
    EXPECT_EQ(Count(e.get(),
                    "SELECT COUNT(*) FROM t JOIN u ON ST_Equals(t.g, u.g);"),
              3);
    // An unqualified column resolves only against exactly one binding.
    EXPECT_EQ(
        Count(e.get(), "SELECT COUNT(*) FROM t JOIN t ON ST_Equals(g, g);"),
        9);
    EXPECT_EQ(
        CodeOf(e.get(), "SELECT COUNT(*) FROM t JOIN u ON ST_Equals(g, g);"),
        StatusCode::kNotFound);
  }
}

TEST(EngineCompiled, PerPairInvalidArgumentReadsAsUnknown) {
  auto e = Clean(Dialect::kPostgis);
  ASSERT_TRUE(e->ExecuteScript(
                   "CREATE TABLE a (g geometry);"
                   "CREATE TABLE b (g geometry);"
                   "INSERT INTO a (g) VALUES ('POINT(0 0)'),('POINT(5 5)');"
                   "INSERT INTO b (g) VALUES ('POINT(0 0)');")
                  .ok());
  // A text distance is a kInvalidArgument on every pair.
  const std::string bad = "ST_DWithin(a.g, b.g, 'x')";
  auto count = [&](const std::string& on) {
    return Count(e.get(), "SELECT COUNT(*) FROM a JOIN b ON " + on + ";");
  };
  EXPECT_EQ(count(bad), 0);
  EXPECT_EQ(count("NOT " + bad), 0);
  EXPECT_EQ(count(bad + " IS UNKNOWN"), 2);
  // Kleene: UNKNOWN AND FALSE is FALSE, UNKNOWN OR TRUE is TRUE, and the
  // other combinations stay UNKNOWN.
  EXPECT_EQ(count("NOT (" + bad + " AND ST_Disjoint(a.g, a.g))"), 2);
  EXPECT_EQ(count("(" + bad + " OR ST_Intersects(a.g, b.g))"), 1);
  EXPECT_EQ(count("(" + bad + " AND ST_Intersects(a.g, b.g)) IS UNKNOWN"), 1);
  EXPECT_EQ(count("(ST_Intersects(a.g, b.g) OR " + bad + ") IS UNKNOWN"), 1);

  // A crash fails the statement under every operator.
  auto crashy = Clean(Dialect::kSqlserver);
  crashy->fault_state().Enable(FaultId::kSqlserverCrashNestedCollection);
  ASSERT_TRUE(
      crashy
          ->ExecuteScript(
              "CREATE TABLE a (g geometry);"
              "CREATE TABLE b (g geometry);"
              "INSERT INTO a (g) VALUES ('POINT(0 0)'),"
              "('GEOMETRYCOLLECTION(GEOMETRYCOLLECTION(POINT(1 1)))');"
              "INSERT INTO b (g) VALUES ('POINT(0 0)');")
          .ok());
  const std::string crash = "ST_Intersects(a.g, b.g)";
  for (const std::string& on :
       {crash, "NOT " + crash, crash + " IS UNKNOWN",
        "(" + crash + " AND ST_Disjoint(a.g, a.g))",
        "(ST_Disjoint(a.g, a.g) OR " + crash + ")"}) {
    EXPECT_EQ(
        CodeOf(crashy.get(), "SELECT COUNT(*) FROM a JOIN b ON " + on + ";"),
        StatusCode::kCrash)
        << on;
  }
}

TEST(EngineCompiled, StrictDialectChecksInvalidLiteralOnEveryPair) {
  // Stored rows pass the validity check once, at INSERT; a literal
  // argument is checked at every call, so an invalid one reads as
  // UNKNOWN for every pair.
  for (Dialect d : {Dialect::kPostgis, Dialect::kDuckdbSpatial}) {
    auto e = Clean(d);
    ASSERT_TRUE(e->ExecuteScript(
                     "CREATE TABLE a (g geometry);"
                     "CREATE TABLE b (g geometry);"
                     "INSERT INTO a (g) VALUES ('POINT(0 0)'),('POINT(5 5)'),"
                     "('POLYGON((0 0,4 0,4 4,0 4,0 0))');"
                     "INSERT INTO b (g) VALUES ('POINT(1 1)'),('POINT(9 9)');")
                    .ok());
    const std::string bowtie = "'POLYGON((0 0,1 1,0 1,1 0,0 0))'";
    for (const std::string& arg : {bowtie, bowtie + "::geometry"}) {
      const std::string pred = "ST_Intersects(a.g, " + arg + ")";
      auto count = [&](const std::string& on) {
        return Count(e.get(), "SELECT COUNT(*) FROM a JOIN b ON " + on + ";");
      };
      EXPECT_EQ(count(pred), 0) << pred;
      EXPECT_EQ(count("NOT " + pred), 0) << pred;
      EXPECT_EQ(count(pred + " IS UNKNOWN"), 6) << pred;
      EXPECT_EQ(count("(" + pred + " OR ST_Intersects(a.g, b.g))"), 1) << pred;
    }
    EXPECT_EQ(
        Count(e.get(),
              "SELECT COUNT(*) FROM a JOIN b ON ST_Intersects(a.g, b.g);"),
        1);
  }
}

TEST(Engine, SwapXYAndAffineFunctions) {
  auto e = Clean();
  EXPECT_EQ(Scalar(e.get(),
                   "SELECT ST_AsText(ST_SwapXY('LINESTRING(1 2,3 4)'));"),
            "{LINESTRING(2 1,4 3)}");
  EXPECT_EQ(Scalar(e.get(), "SELECT ST_AsText(ST_Affine('POINT(1 1)', "
                            "2, 0, 0, 2, 5, -5));"),
            "{POINT(7 -3)}");
}


// --- Typed inserts ------------------------------------------------------------
//
// InsertValue is the statement `INSERT INTO t (g) VALUES ('<WKT>')` for the
// string '<WKT>', and for a geometry that is exactly what ReadWkt returns
// for that WKT. The statement is the reference: the same result, stored
// row, coverage counts, fault ids and statement count, on every dialect,
// faults on and off.

struct InsertOutcome {
  std::string status;
  std::map<size_t, uint64_t> coverage;
  std::set<faults::FaultId> fault_hits;
  uint64_t statements = 0;
  std::string rows;  // the table's geometries as WKB hex

  bool operator==(const InsertOutcome& o) const {
    return status == o.status && coverage == o.coverage &&
           fault_hits == o.fault_hits && statements == o.statements &&
           rows == o.rows;
  }
};

template <typename Insert>
InsertOutcome ObserveInsert(Engine* engine, Insert insert) {
  auto& registry = CoverageRegistry::Instance();
  engine->fault_state().ClearHits();
  const uint64_t statements = engine->stats().statements_executed;
  const std::vector<uint64_t> before = registry.SnapshotHits();
  InsertOutcome out;
  out.status = insert().status().ToString();
  const std::vector<uint64_t> after = registry.SnapshotHits();
  for (size_t i = 0; i < after.size(); ++i) {
    const uint64_t was = i < before.size() ? before[i] : 0;
    if (after[i] != was) out.coverage[i] = after[i] - was;
  }
  out.fault_hits = engine->fault_state().TakeHits();
  out.statements = engine->stats().statements_executed - statements;
  if (const Table* t = engine->FindTable("t")) {
    for (const Row& row : t->rows) {
      const Value& v = row[t->geometry_column];
      out.rows += (v.geometry() ? geom::WriteWkbHex(*v.geometry()) : "null") +
                  (v.valid_checked() ? "+ " : " ");
    }
  }
  return out;
}

// The INSERT of `wkt` as a string literal, its quotes doubled.
std::string InsertStatement(const std::string& table, const std::string& col,
                            const std::string& wkt) {
  std::string sql = "INSERT INTO " + table + " (" + col + ") VALUES ('";
  for (char c : wkt) {
    sql += c;
    if (c == '\'') sql += '\'';
  }
  return sql + "');";
}

TEST(EngineTypedInsert, EqualsTheInsertStatement) {
  // Valid and invalid rows, EMPTY, and collections the strict dialects'
  // validity check relates element by element (twice, so the relate memo
  // replays the second time); then WKT that does not parse, one with a
  // quote inside, which only the string form can carry.
  const std::string overlap =
      "GEOMETRYCOLLECTION(POLYGON((0 0,2 0,2 2,0 2,0 0)),"
      "POLYGON((1 1,3 1,3 3,1 3,1 1)))";
  const std::vector<std::string> rows = {
      "POINT(1 2)", "POINT EMPTY", "POLYGON((0 0,1 1,0 1,1 0,0 0))", overlap,
      "LINESTRING(0 0,0 0)", "MULTIPOINT((0 0),EMPTY)",
      "GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 1))", overlap,
      "MULTIPOLYGON(((0 0,4 0,4 4,0 4,0 0)),((1 1,2 1,2 2,1 2,1 1)))",
      "POINT(1", "POINT('1 1)", "POINT(1 2) '"};
  for (int d = 0; d < kNumDialects; ++d) {
    for (bool faults : {false, true}) {
      const auto dialect = static_cast<Dialect>(d);
      SCOPED_TRACE(std::string(DialectName(dialect)) +
                   (faults ? " faulty" : " fixed"));
      Engine typed(dialect, faults);
      Engine statement(dialect, faults);
      for (Engine* e : {&typed, &statement}) {
        ASSERT_TRUE(e->Execute("CREATE TABLE t (g geometry);").ok());
      }
      auto insert_value = [&](Value value) {
        return ObserveInsert(&typed, [&] {
          Result<ExecResult> r = Status::OK();
          typed.TypedLoad(
              [&] { r = typed.InsertValue("t", "g", std::move(value)); });
          return r;
        });
      };
      for (const std::string& wkt : rows) {
        SCOPED_TRACE(wkt);
        const InsertOutcome want = ObserveInsert(&statement, [&] {
          return statement.Execute(InsertStatement("t", "g", wkt));
        });
        const InsertOutcome got = insert_value(Value::String(wkt));
        EXPECT_EQ(got, want) << got.status << " vs " << want.status;
        auto parsed = geom::ReadWkt(wkt);
        if (!parsed.ok()) continue;
        // The geometry form; the statement runs again, so that both tables
        // grow alike.
        const InsertOutcome want_again = ObserveInsert(&statement, [&] {
          return statement.Execute(InsertStatement("t", "g", wkt));
        });
        const InsertOutcome got_typed = insert_value(
            Value::Geometry(std::shared_ptr<const geom::Geometry>(
                parsed.Take())));
        EXPECT_EQ(got_typed, want_again)
            << got_typed.status << " vs " << want_again.status;
      }
      // Errors come from the same row code, so they read alike.
      const Value point =
          Value::Geometry(std::make_shared<geom::Point>(1, 2));
      EXPECT_EQ(ObserveInsert(&typed,
                              [&] {
                                return typed.InsertValue("nope", "g", point);
                              }),
                ObserveInsert(&statement, [&] {
                  return statement.Execute(
                      InsertStatement("nope", "g", "POINT(1 2)"));
                }));
      EXPECT_EQ(
          ObserveInsert(&typed,
                        [&] { return typed.InsertValue("t", "h", point); }),
          ObserveInsert(&statement, [&] {
            return statement.Execute(InsertStatement("t", "h", "POINT(1 2)"));
          }));
    }
  }
}

}  // namespace
}  // namespace spatter::engine
