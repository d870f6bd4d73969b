#include "faults/fault.h"

namespace spatter::faults {

const char* ComponentName(Component c) {
  switch (c) {
    case Component::kGeos:
      return "GEOS";
    case Component::kPostgis:
      return "PostGIS";
    case Component::kDuckdb:
      return "DuckDB Spatial";
    case Component::kMysql:
      return "MySQL";
    case Component::kSqlserver:
      return "SQL Server";
    case Component::kInjected:
      return "Injected";
  }
  return "Unknown";
}

const char* BugKindName(BugKind k) {
  return k == BugKind::kLogic ? "logic" : "crash";
}

const char* BugStatusName(BugStatus s) {
  switch (s) {
    case BugStatus::kFixed:
      return "fixed";
    case BugStatus::kConfirmed:
      return "confirmed";
    case BugStatus::kUnconfirmed:
      return "unconfirmed";
    case BugStatus::kDuplicate:
      return "duplicate";
  }
  return "unknown";
}

const std::vector<FaultInfo>& FaultCatalog() {
  static const std::vector<FaultInfo> kCatalog = {
      // --- GEOS ------------------------------------------------------------
      {FaultId::kGeosGcBoundaryLastOneWins, "geos_gc_boundary_last_one_wins",
       Component::kGeos, BugKind::kLogic, BugStatus::kConfirmed,
       "GEOMETRYCOLLECTION point location uses the 'last-one-wins' strategy "
       "instead of interior-priority union semantics (paper Listing 6)"},
      {FaultId::kGeosPreparedStaleCache, "geos_prepared_stale_cache",
       Component::kGeos, BugKind::kLogic, BugStatus::kFixed,
       "prepared-geometry predicate returns a stale negative for a candidate "
       "structurally identical to the previous one (paper Listing 7)"},
      {FaultId::kGeosMixedDimensionFirstElement,
       "geos_mixed_dimension_first_element", Component::kGeos,
       BugKind::kLogic, BugStatus::kConfirmed,
       "dimension processor reports a MIXED geometry's dimension from its "
       "first element instead of the maximum"},
      {FaultId::kGeosBoundaryEmptyElementDrop,
       "geos_boundary_empty_element_drop", Component::kGeos, BugKind::kLogic,
       BugStatus::kConfirmed,
       "mod-2 boundary rule treats a MULTILINESTRING with an EMPTY element "
       "as if every endpoint were interior"},
      {FaultId::kGeosGcEmptyElementIntersects,
       "geos_gc_empty_element_intersects", Component::kGeos, BugKind::kLogic,
       BugStatus::kConfirmed,
       "intersects degenerates to an envelope test when either collection "
       "contains an EMPTY element"},
      {FaultId::kGeosTouchesClosedLineBoundary,
       "geos_touches_closed_line_boundary", Component::kGeos, BugKind::kLogic,
       BugStatus::kConfirmed,
       "touches treats the start point of a closed LINESTRING as boundary "
       "although rings have an empty boundary"},
      {FaultId::kGeosWithinGcPointInterior, "geos_within_gc_point_interior",
       Component::kGeos, BugKind::kLogic, BugStatus::kConfirmed,
       "within misses interiors contributed by 0-dimensional elements of a "
       "GEOMETRYCOLLECTION (companion of Listing 6)"},
      {FaultId::kGeosOverlapsIgnoresHoles, "geos_overlaps_ignores_holes",
       Component::kGeos, BugKind::kLogic, BugStatus::kConfirmed,
       "polygon/polygon overlaps fast path evaluates shells only, ignoring "
       "holes"},
      {FaultId::kGeosCrossesSharedEndpoint, "geos_crosses_shared_endpoint",
       Component::kGeos, BugKind::kLogic, BugStatus::kConfirmed,
       "line/line crosses reports true when the lines share only a boundary "
       "endpoint"},
      {FaultId::kGeosCrashConvexHullCollinear,
       "geos_crash_convex_hull_collinear", Component::kGeos, BugKind::kCrash,
       BugStatus::kFixed,
       "convex hull aborts on inputs with >= 8 collinear points"},
      {FaultId::kGeosCrashPolygonizeDangling,
       "geos_crash_polygonize_dangling", Component::kGeos, BugKind::kCrash,
       BugStatus::kFixed,
       "polygonizer aborts when the noded linework keeps dangling edges"},
      {FaultId::kGeosCrashRelateNestedGc, "geos_crash_relate_nested_gc",
       Component::kGeos, BugKind::kCrash, BugStatus::kFixed,
       "relate aborts on GEOMETRYCOLLECTIONs nested three or more levels"},
      // --- PostGIS ---------------------------------------------------------
      {FaultId::kPostgisCoversDisplacementPrecision,
       "postgis_covers_displacement_precision", Component::kPostgis,
       BugKind::kLogic, BugStatus::kFixed,
       "covers loses precision normalizing vertices (displacement to the "
       "origin) unless a vertex already sits at the origin (paper Listing 1)"},
      {FaultId::kPostgisDistanceEmptyRecursion,
       "postgis_distance_empty_recursion", Component::kPostgis,
       BugKind::kLogic, BugStatus::kFixed,
       "ST_Distance recursion aborts remaining MULTI elements after an EMPTY "
       "element (paper Listing 5)"},
      {FaultId::kPostgisDFullyWithinDefinition,
       "postgis_dfullywithin_definition", Component::kPostgis,
       BugKind::kLogic, BugStatus::kConfirmed,
       "ST_DFullyWithin implements the 'wrong' definition the developers "
       "flagged (envelope-expansion containment, paper Listing 9)"},
      {FaultId::kPostgisGistEmptySameAs, "postgis_gist_empty_same_as",
       Component::kPostgis, BugKind::kLogic, BugStatus::kFixed,
       "GiST index scan misses rows whose geometry is EMPTY or whose "
       "envelope collapses onto the origin (paper Listing 8)"},
      {FaultId::kPostgisCoveredByNegativeQuadrant,
       "postgis_coveredby_negative_quadrant", Component::kPostgis,
       BugKind::kLogic, BugStatus::kFixed,
       "coveredBy misjudges geometries lying entirely in the negative "
       "quadrant (sign-handling bug)"},
      {FaultId::kPostgisEqualsCollapsedLine, "postgis_equals_collapsed_line",
       Component::kPostgis, BugKind::kLogic, BugStatus::kFixed,
       "ST_Equals misreports lines containing consecutive duplicate points"},
      {FaultId::kPostgisDWithinNegativeCoords,
       "postgis_dwithin_negative_coords", Component::kPostgis,
       BugKind::kLogic, BugStatus::kFixed,
       "ST_DWithin applies abs() to coordinates before the distance test"},
      {FaultId::kPostgisCrashDumpRingsEmpty, "postgis_crash_dumprings_empty",
       Component::kPostgis, BugKind::kCrash, BugStatus::kFixed,
       "ST_DumpRings on POLYGON EMPTY dereferences a null ring"},
      {FaultId::kPostgisCrashBoundaryEmptyElement,
       "postgis_crash_boundary_empty_element", Component::kPostgis,
       BugKind::kCrash, BugStatus::kFixed,
       "ST_Boundary crashes on collections holding EMPTY line elements"},
      {FaultId::kPostgisPreparedDuplicateReport,
       "postgis_prepared_duplicate_report", Component::kPostgis,
       BugKind::kLogic, BugStatus::kDuplicate,
       "duplicate report: same root cause as geos_prepared_stale_cache"},
      {FaultId::kPostgisRelateBoundaryNodeRule,
       "postgis_relate_boundary_node_rule", Component::kPostgis,
       BugKind::kLogic, BugStatus::kUnconfirmed,
       "ST_Relate applies the mod-2 rule per segment rather than per "
       "element at junctions of three or more lines"},
      // --- DuckDB Spatial ----------------------------------------------------
      {FaultId::kDuckdbCrashCollectionExtractEmpty,
       "duckdb_crash_collection_extract_empty", Component::kDuckdb,
       BugKind::kCrash, BugStatus::kFixed,
       "CollectionExtract on an empty GEOMETRYCOLLECTION segfaults"},
      {FaultId::kDuckdbCrashGeometryNZero, "duckdb_crash_geometry_n_zero",
       Component::kDuckdb, BugKind::kCrash, BugStatus::kFixed,
       "GeometryN with index 0 aborts instead of returning an error"},
      {FaultId::kDuckdbCrashPolygonizeEmpty, "duckdb_crash_polygonize_empty",
       Component::kDuckdb, BugKind::kCrash, BugStatus::kFixed,
       "Polygonize of an empty geometry aborts"},
      {FaultId::kDuckdbCrashEnvelopePointEmpty,
       "duckdb_crash_envelope_point_empty", Component::kDuckdb,
       BugKind::kCrash, BugStatus::kFixed,
       "Envelope of POINT EMPTY aborts"},
      {FaultId::kDuckdbCrashForceCwCollection,
       "duckdb_crash_force_cw_collection", Component::kDuckdb,
       BugKind::kCrash, BugStatus::kFixed,
       "ForcePolygonCW on a GEOMETRYCOLLECTION aborts"},
      {FaultId::kDuckdbIntersectsEnvelopeOnly,
       "duckdb_intersects_envelope_only", Component::kDuckdb, BugKind::kLogic,
       BugStatus::kUnconfirmed,
       "intersects on GEOMETRYCOLLECTION inputs falls back to an envelope "
       "test"},
      // --- MySQL ---------------------------------------------------------------
      {FaultId::kMysqlCrossesGcLargeCoords, "mysql_crosses_gc_large_coords",
       Component::kMysql, BugKind::kLogic, BugStatus::kConfirmed,
       "ST_Crosses against a GEOMETRYCOLLECTION misses the equality "
       "exception once coordinates exceed the internal grid (Listing 3: "
       "wrong after scaling by 10)"},
      {FaultId::kMysqlOverlapsSwappedAxes, "mysql_overlaps_swapped_axes",
       Component::kMysql, BugKind::kLogic, BugStatus::kConfirmed,
       "ST_Overlaps takes an x/y asymmetric code path, wrong after swapping "
       "axes (paper Listing 4)"},
      {FaultId::kMysqlWithinIndexGrid, "mysql_within_index_grid",
       Component::kMysql, BugKind::kLogic, BugStatus::kConfirmed,
       "index-assisted within quantizes envelopes to a coarse grid for "
       "coordinates with magnitude >= 512"},
      {FaultId::kMysqlTouchesEmptyCollection,
       "mysql_touches_empty_collection", Component::kMysql, BugKind::kLogic,
       BugStatus::kFixed,
       "ST_Touches returns true against an empty GEOMETRYCOLLECTION"},
      // --- SQL Server -------------------------------------------------------
      {FaultId::kSqlserverDisjointAsymmetric,
       "sqlserver_disjoint_asymmetric", Component::kSqlserver,
       BugKind::kLogic, BugStatus::kUnconfirmed,
       "STDisjoint(point, polygon) disagrees with STDisjoint(polygon, "
       "point) when the point lies on the boundary"},
      {FaultId::kSqlserverCrashNestedCollection,
       "sqlserver_crash_nested_collection", Component::kSqlserver,
       BugKind::kCrash, BugStatus::kUnconfirmed,
       "nested collection inputs abort the relate engine"},
      // --- Injected (ground-truth recall corpus; no paper counterpart) -----
      // These model no reported bug: they are seeded defects of known class
      // for LAVA-style oracle recall gating. Component::kInjected keeps them
      // out of every dialect's default fault set — they fire only when a
      // test enables them explicitly on an engine's FaultState.
      {FaultId::kInjectedConjunctionSignFlip,
       "injected_conjunction_sign_flip", Component::kInjected,
       BugKind::kLogic, BugStatus::kConfirmed,
       "AND/OR evaluation flips every two-valued result; reachable only "
       "through EET-rewritten predicates (no generated query contains "
       "AND/OR), so exactly the EET oracle can observe it"},
      {FaultId::kInjectedIndexScanShortcut, "injected_index_scan_shortcut",
       Component::kInjected, BugKind::kLogic, BugStatus::kConfirmed,
       "the GiST candidate scan stops after its first admitted row, "
       "dropping all later candidates (index on/off divergence)"},
      {FaultId::kInjectedJoinDedupDrop, "injected_join_dedup_drop",
       Component::kInjected, BugKind::kLogic, BugStatus::kConfirmed,
       "the join counting loop drops the second of two consecutive "
       "matching candidates (partition-sum divergence)"},
  };
  return kCatalog;
}

const FaultInfo& GetFaultInfo(FaultId id) {
  return FaultCatalog()[static_cast<size_t>(id)];
}

std::vector<FaultId> FaultsForComponent(Component engine_component,
                                        bool include_geos) {
  std::vector<FaultId> out;
  for (const auto& info : FaultCatalog()) {
    if (info.component == engine_component ||
        (include_geos && info.component == Component::kGeos)) {
      out.push_back(info.id);
    }
  }
  return out;
}

std::set<FaultId> FaultState::Hits() const {
  std::set<FaultId> out;
  for (uint64_t bits = hits_; bits != 0; bits &= bits - 1) {
    out.insert(out.end(), static_cast<FaultId>(__builtin_ctzll(bits)));
  }
  return out;
}

void Effects::Replay(const FaultState* faults) const {
  if (fired != 0) faults->FireBits(fired);
  auto& registry = CoverageRegistry::Instance();
  for (const CoverageRegistry::SiteHits& s : sites) {
    registry.Hit(s.site, s.count);
  }
}

}  // namespace spatter::faults
