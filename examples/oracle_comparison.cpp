// Compares the four oracles on the paper's headline scenarios through the
// pluggable oracle-suite API (fuzz/oracle_suite.h): every oracle is a
// fuzz::Oracle behind one interface — the same objects a campaign runs
// with `spatter --oracles=...` — so the demo exercises exactly the
// production code path. Shows why shared-library bugs blind cross-SDBMS
// differential testing (the paper's core motivation for AEI) and how the
// index/TLP oracles only see their slice.
//
// Build & run:  ./build/examples/oracle_comparison
#include <cstdio>
#include <memory>
#include <vector>

#include "fuzz/oracle_suite.h"

using namespace spatter;  // NOLINT
using engine::Dialect;

namespace {

/// The oracle lineup for one scenario: AEI plus every baseline, built
/// through the same factory the campaign uses.
std::vector<std::unique_ptr<fuzz::Oracle>> Lineup(Dialect secondary) {
  fuzz::OracleSuiteSpec spec;
  spec.diff_secondary = secondary;
  std::vector<std::unique_ptr<fuzz::Oracle>> oracles;
  for (fuzz::OracleKind kind :
       {fuzz::OracleKind::kAei, fuzz::OracleKind::kDifferential,
        fuzz::OracleKind::kIndex, fuzz::OracleKind::kTlp}) {
    oracles.push_back(
        fuzz::MakeOracle(kind, Dialect::kPostgis, /*enable_faults=*/true,
                         spec));
  }
  return oracles;
}

void Report(const std::string& label, const fuzz::OracleOutcome& o) {
  if (!o.applicable) {
    std::printf("  %-26s inapplicable\n", label.c_str());
    return;
  }
  std::printf("  %-26s %-10s %s\n", label.c_str(),
              o.crash ? "CRASH" : (o.mismatch ? "MISMATCH" : "consistent"),
              o.detail.c_str());
}

void RunScenario(engine::Engine* pg, const fuzz::DatabaseSpec& sdb,
                 const fuzz::QuerySpec& query, const fuzz::OracleCtx& ctx,
                 Dialect secondary) {
  for (const auto& oracle : Lineup(secondary)) {
    std::string label = oracle->Name();
    if (const auto dialect = oracle->SecondaryDialect()) {
      label += std::string(" (vs ") + engine::DialectName(*dialect) + ")";
    } else if (oracle->Kind() == fuzz::OracleKind::kAei) {
      label += ctx.transform.IsIdentity() ? " (canonicalize)"
                                          : " (" + ctx.transform.ToString() +
                                                ")";
    }
    Report(label, oracle->Check(pg, sdb, query, ctx));
  }
}

}  // namespace

int main() {
  engine::Engine pg(Dialect::kPostgis, true);

  // --- Scenario 1: the Listing 6 GEOS bug ----------------------------------
  std::printf("scenario 1: GEOS 'last-one-wins' boundary bug "
              "(paper Listing 6)\n");
  fuzz::DatabaseSpec gc_db;
  gc_db.tables.push_back(fuzz::TableSpec{"t1", {"POINT(0 0)"}});
  gc_db.tables.push_back(fuzz::TableSpec{
      "t2", {"GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0))"}});
  fuzz::QuerySpec within;
  within.table1 = "t1";
  within.table2 = "t2";
  within.predicate = "ST_Within";
  fuzz::OracleCtx identity;
  identity.canonical_only = true;
  std::printf(" vs DuckDB (both embed GEOS):\n");
  RunScenario(&pg, gc_db, within, identity, Dialect::kDuckdbSpatial);
  std::printf(" vs MySQL (independent engine):\n");
  RunScenario(&pg, gc_db, within, identity, Dialect::kMysql);
  std::printf("  -> both GEOS-backed systems give the same wrong answer: "
              "the GEOS-pair differential is blind.\n\n");

  // --- Scenario 2: a PostGIS-only function ---------------------------------
  std::printf("scenario 2: ST_Covers precision bug (paper Listing 1); "
              "ST_Covers exists only in\nPostGIS/DuckDB, so a MySQL "
              "differential cannot even pose the query\n");
  fuzz::DatabaseSpec cov_db;
  cov_db.tables.push_back(fuzz::TableSpec{"t1", {"LINESTRING(1 1,0 0)"}});
  cov_db.tables.push_back(fuzz::TableSpec{"t2", {"POINT(0.9 0.9)"}});
  fuzz::QuerySpec covers;
  covers.table1 = "t1";
  covers.table2 = "t2";
  covers.predicate = "ST_Covers";
  fuzz::OracleCtx translate;
  translate.transform = algo::AffineTransform::Translation(3, 7);
  RunScenario(&pg, cov_db, covers, translate, Dialect::kMysql);
  std::printf("\n");

  // --- Scenario 3: the GiST index bug --------------------------------------
  std::printf("scenario 3: GiST EMPTY bug (paper Listing 8) — the Index "
              "oracle's home turf\n");
  fuzz::DatabaseSpec idx_db;
  idx_db.tables.push_back(fuzz::TableSpec{"t1", {"POINT EMPTY"}});
  idx_db.tables.push_back(fuzz::TableSpec{"t2", {"POINT EMPTY"}});
  fuzz::QuerySpec same;
  same.table1 = "t1";
  same.table2 = "t2";
  same.predicate = "~=";
  RunScenario(&pg, idx_db, same, identity, Dialect::kMysql);
  std::printf("\nsame lineup, campaign-wide: spatter "
              "--oracles=aei,diff,index,tlp\n");
  return 0;
}
