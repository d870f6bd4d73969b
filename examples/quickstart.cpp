// Quickstart: the three layers of the public API in one tour —
//  1. the geometry/topology library (WKT, DE-9IM, predicates),
//  2. the embedded spatial SQL engine,
//  3. a minimal Affine-Equivalent-Input check.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "algo/affine.h"
#include "algo/canonicalize.h"
#include "engine/engine.h"
#include "fuzz/aei.h"
#include "fuzz/oracles.h"
#include "geom/wkt_reader.h"
#include "relate/named_predicates.h"
#include "relate/relate.h"

using namespace spatter;  // NOLINT

int main() {
  // --- 1. Geometry + DE-9IM ------------------------------------------------
  std::printf("== geometry & topology ==\n");
  auto line = geom::ReadWkt("LINESTRING(0 1,2 0)").Take();
  auto point = geom::ReadWkt("POINT(0.2 0.9)").Take();
  auto im = relate::Relate(*line, *point).Take();
  std::printf("DE-9IM(%s, %s) = %s\n", line->ToWkt().c_str(),
              point->ToWkt().c_str(), im.Code().c_str());
  std::printf("covers: %s  (paper Listing 1 expects true)\n",
              relate::Covers(*line, *point).value() ? "true" : "false");

  // Canonicalization (paper Figure 6).
  auto messy =
      geom::ReadWkt("MULTILINESTRING((0 2,1 0,3 1,3 1,5 0),EMPTY)").Take();
  std::printf("canonicalize(%s)\n  = %s\n", messy->ToWkt().c_str(),
              algo::Canonicalize(*messy)->ToWkt().c_str());

  // --- 2. The embedded spatial SQL engine ----------------------------------
  std::printf("\n== spatial SQL engine (PostGIS dialect, fixed) ==\n");
  engine::Engine db(engine::Dialect::kPostgis, /*enable_faults=*/false);
  const char* script =
      "CREATE TABLE t1 (g geometry);"
      "CREATE TABLE t2 (g geometry);"
      "INSERT INTO t1 (g) VALUES ('LINESTRING(0 1,2 0)');"
      "INSERT INTO t2 (g) VALUES ('POINT(0.2 0.9)');"
      "SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Covers(t1.g,t2.g);";
  auto result = db.ExecuteScript(script);
  std::printf("Listing 1 query -> %s (expected {1})\n",
              result.value().ToString().c_str());

  // --- 3. One AEI check ------------------------------------------------------
  std::printf("\n== one Affine Equivalent Inputs check ==\n");
  engine::Engine buggy(engine::Dialect::kPostgis, /*enable_faults=*/true);
  fuzz::DatabaseSpec sdb1;
  sdb1.tables.push_back(fuzz::TableSpec{"t1", {"LINESTRING(1 1,0 0)"}});
  sdb1.tables.push_back(fuzz::TableSpec{"t2", {"POINT(0.9 0.9)"}});
  fuzz::QuerySpec query;
  query.table1 = "t1";
  query.table2 = "t2";
  query.predicate = "ST_Covers";
  const auto transform = algo::AffineTransform::Translation(3, 7);
  fuzz::OracleCtx ctx;
  ctx.transform = transform;
  const auto outcome = fuzz::AeiOracle().Check(&buggy, sdb1, query, ctx);
  std::printf("query: %s\ntransform: %s\n", query.ToSql().c_str(),
              transform.ToString().c_str());
  std::printf("outcome: %s %s\n",
              outcome.mismatch ? "MISMATCH (logic bug found!)" : "consistent",
              outcome.detail.c_str());
  for (auto id : outcome.fault_hits) {
    std::printf("  fired fault: %s\n", faults::GetFaultInfo(id).name);
  }
  return 0;
}
