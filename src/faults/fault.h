// Fault-injection registry.
//
// The paper evaluates Spatter against four production SDBMSs and reports 35
// bug reports (34 unique bugs; one PostGIS report was a duplicate of a GEOS
// bug). We cannot test those systems offline, so each reported bug class is
// re-created as an injectable fault at the equivalent code site of our own
// engine stack ("GEOS" faults live in the shared geometry/relate layer and
// therefore affect both the PostGIS-sim and DuckDB-sim dialects — exactly
// the property that makes PostGIS-vs-DuckDB differential testing miss
// them). The catalog counts match Table 2 and Table 3 of the paper:
//
//   component  reports  fixed confirmed unconfirmed duplicate | logic crash
//   GEOS          12      4       8         0           0     |   9     3
//   PostGIS       11      8       1         1           1     |   7     2
//   DuckDB         6      5       0         1           0     |   1*    5
//   MySQL          4      1       3         0           0     |   4     0
//   SQLServer      2      0       0         2           0     |   1*    1*
//   (* unconfirmed bugs are excluded from Table 3's 20-logic/10-crash split)
#ifndef SPATTER_FAULTS_FAULT_H_
#define SPATTER_FAULTS_FAULT_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/coverage.h"

namespace spatter::faults {

/// Component the bug lives in. GEOS faults affect every dialect that links
/// the shared library (PostGIS-sim and DuckDB-sim). kInjected faults model
/// no paper bug: they are the LAVA-style ground-truth corpus for oracle
/// recall gating, belong to no dialect's default fault set, and only fire
/// when a test enables them explicitly.
enum class Component { kGeos, kPostgis, kDuckdb, kMysql, kSqlserver,
                       kInjected };

const char* ComponentName(Component c);

enum class BugKind { kLogic, kCrash };
enum class BugStatus { kFixed, kConfirmed, kUnconfirmed, kDuplicate };

const char* BugKindName(BugKind k);
const char* BugStatusName(BugStatus s);

/// Every injectable fault. Identifiers name the simulated root cause; the
/// descriptor table in fault.cc documents the paper bug each one mirrors.
enum class FaultId : uint32_t {
  // --- GEOS (shared library) ---------------------------------------------
  kGeosGcBoundaryLastOneWins = 0,   // Listing 6: "last-one-wins" boundary
  kGeosPreparedStaleCache,          // Listing 7: prepared geometry cache
  kGeosMixedDimensionFirstElement,  // GC dimension = first element's dim
  kGeosBoundaryEmptyElementDrop,    // mod-2 rule breaks on EMPTY elements
  kGeosGcEmptyElementIntersects,    // intersects true from EMPTY + bbox
  kGeosTouchesClosedLineBoundary,   // touches treats ring start as boundary
  kGeosWithinGcPointInterior,       // within ignores 0-dim GC interiors
  kGeosOverlapsIgnoresHoles,        // polygon overlap fast path skips holes
  kGeosCrossesSharedEndpoint,       // line/line crosses on shared endpoint
  kGeosCrashConvexHullCollinear,    // crash: hull of many collinear points
  kGeosCrashPolygonizeDangling,     // crash: polygonize with dangling edges
  kGeosCrashRelateNestedGc,         // crash: relate on deeply nested GCs
  // --- PostGIS ------------------------------------------------------------
  kPostgisCoversDisplacementPrecision,  // Listing 1: float displacement
  kPostgisDistanceEmptyRecursion,       // Listing 5: EMPTY aborts recursion
  kPostgisDFullyWithinDefinition,       // Listing 9: wrong definition
  kPostgisGistEmptySameAs,              // Listing 8: index misses EMPTY rows
  kPostgisCoveredByNegativeQuadrant,    // sign bug for all-negative coords
  kPostgisEqualsCollapsedLine,          // degenerate-line equality
  kPostgisDWithinNegativeCoords,        // ST_DWithin abs() misuse
  kPostgisCrashDumpRingsEmpty,          // crash: DumpRings(POLYGON EMPTY)
  kPostgisCrashBoundaryEmptyElement,    // crash: Boundary(GC(... EMPTY ...))
  kPostgisPreparedDuplicateReport,      // duplicate report of the GEOS
                                        // prepared-cache bug
  kPostgisRelateBoundaryNodeRule,       // unconfirmed: mod-2 at 3+ junctions
  // --- DuckDB Spatial -----------------------------------------------------
  kDuckdbCrashCollectionExtractEmpty,  // crash: extract from empty GC
  kDuckdbCrashGeometryNZero,           // crash: GeometryN(0)
  kDuckdbCrashPolygonizeEmpty,         // crash: polygonize empty input
  kDuckdbCrashEnvelopePointEmpty,      // crash: envelope of POINT EMPTY
  kDuckdbCrashForceCwCollection,       // crash: ForcePolygonCW on GC
  kDuckdbIntersectsEnvelopeOnly,       // unconfirmed: GC intersects ~ bbox
  // --- MySQL ---------------------------------------------------------------
  kMysqlCrossesGcLargeCoords,   // Listing 3: wrong after scaling by 10
  kMysqlOverlapsSwappedAxes,    // Listing 4: x/y asymmetric overlap path
  kMysqlWithinIndexGrid,        // index pre-filter quantizes envelopes
  kMysqlTouchesEmptyCollection, // touches true against empty GC
  // --- SQL Server -----------------------------------------------------------
  kSqlserverDisjointAsymmetric,    // unconfirmed: arg-order dependent
  kSqlserverCrashNestedCollection, // unconfirmed crash: nested collections
  // --- Injected (recall-gate ground truth, test-only) ----------------------
  kInjectedConjunctionSignFlip,    // AND/OR evaluator flips its result
  kInjectedIndexScanShortcut,      // index scan stops at its first hit
  kInjectedJoinDedupDrop,          // join drops 2nd consecutive match

  kNumFaults,
};
static_assert(static_cast<uint32_t>(FaultId::kNumFaults) <= 64,
              "FaultState keeps the enabled and fired sets in 64-bit masks");

/// Static metadata for one fault.
struct FaultInfo {
  FaultId id;
  const char* name;         ///< stable identifier string
  Component component;
  BugKind kind;
  BugStatus status;
  const char* description;  ///< the paper bug this mirrors
};

/// All descriptors, indexed by FaultId.
const std::vector<FaultInfo>& FaultCatalog();
const FaultInfo& GetFaultInfo(FaultId id);

/// Faults shipped to a dialect: its own component faults plus GEOS faults
/// for the dialects that embed the shared library.
std::vector<FaultId> FaultsForComponent(Component engine_component,
                                        bool include_geos);

/// Runtime fault switchboard threaded through the engine and the
/// relate/algo hook sites. Also records which faults actually fired during
/// a query — the ground truth the deduplicator uses in place of the
/// paper's fix-commit bisection.
class FaultState {
 public:
  FaultState() = default;

  void Enable(FaultId id) { enabled_ |= Bit(id); }
  void Disable(FaultId id) { enabled_ &= ~Bit(id); }
  void EnableAll(const std::vector<FaultId>& ids) {
    for (FaultId id : ids) Enable(id);
  }
  /// One bit test: per-row and per-pair hook sites call this.
  bool IsEnabled(FaultId id) const { return (enabled_ & Bit(id)) != 0; }

  /// Hook helper: returns true (and records the hit) when the fault is
  /// enabled. Hook sites wrap buggy behaviour in
  /// `if (state && state->Fire(FaultId::kX)) { ...bug... }`.
  bool Fire(FaultId id) const {
    if (!IsEnabled(id)) return false;
    hits_ |= Bit(id);
    return true;
  }

  void ClearHits() const { hits_ = 0; }
  /// The ids fired since the last clear, as the set outcomes and findings
  /// keep.
  std::set<FaultId> Hits() const;
  std::set<FaultId> TakeHits() const {
    std::set<FaultId> out = Hits();
    hits_ = 0;
    return out;
  }

  /// Fire for every id whose Bit is set in `bits`: a replayed recording
  /// (Effects) or a relate kernel run's tally re-fires what it fired.
  void FireBits(uint64_t bits) const { hits_ |= bits & enabled_; }

  /// The enabled set, bit i for FaultId i. The relate memo keys on it, so
  /// two states with the same set share memo entries.
  uint64_t EnabledMask() const { return enabled_; }

  /// The bit of `id` in EnabledMask.
  static uint64_t Bit(FaultId id) {
    return uint64_t{1} << static_cast<uint32_t>(id);
  }

 private:
  friend struct Effects;

  uint64_t enabled_ = 0;
  mutable uint64_t hits_ = 0;  // recorder is observability, not state.
};

/// What one unit of work did besides its result: the fault ids it fired
/// and every coverage site it hit, with its count. A load snapshot records
/// each statement and row of a load (fuzz::LoadDatabase), and the derived
/// state each SDB1 row's canonicalization; a replay then leaves fault hits,
/// coverage counters and any active trace or capture exactly as re-running
/// the work would. The relate memo does not record with it: the kernel
/// counts its few sites and faults in a fixed tally of its own
/// (relate::Tally), which costs no capture.
struct Effects {
  uint64_t fired = 0;  // FaultState::Bit of each id
  std::vector<CoverageRegistry::SiteHits> sites;

  /// Runs `work()` and records, in place of what *this held, what it alone
  /// fired and hit: the caller's earlier fault hits are set aside and
  /// ORed back afterwards, and the capture nests inside any active one.
  /// `faults` may be null (no faults). Returns what `work` returns.
  template <typename Work>
  auto Record(const FaultState* faults, Work&& work) {
    uint64_t earlier = 0;
    if (faults) std::swap(earlier, faults->hits_);
    CoverageRegistry::BeginCapture(&sites);
    auto result = work();
    CoverageRegistry::EndCapture();
    fired = 0;
    if (faults) {
      fired = faults->hits_;
      faults->hits_ |= earlier;
    }
    return result;
  }

  /// Re-fires the recorded ids on `faults` and re-adds each site's count.
  /// `faults` may be null only when nothing fired.
  void Replay(const FaultState* faults) const;
};

}  // namespace spatter::faults

#endif  // SPATTER_FAULTS_FAULT_H_
