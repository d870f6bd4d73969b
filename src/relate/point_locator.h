// Point location against arbitrary geometries, implementing the union
// semantics with interior-priority for 0-dimensional elements and the OGC
// mod-2 rule for line endpoints (DESIGN.md §4). This is the semantic core
// the DE-9IM computer classifies pieces with — and the code site of the
// "last-one-wins" GEOS bug (paper Listing 6), injectable via FaultState.
//
// There is one locator, PreparedOperand. It flattens a geometry once into
// its basic elements and stores each line's and ring's segments with the
// box OnSegment accepts, its x- and y-range widened by OnSegment's own
// tolerance, computed as OnSegment computes it, so a test against a
// prepared segment does not compute the tolerance again. A query point
// outside the y-range can neither lie on the segment nor cross it with
// the +x ray, so the locator drops such a segment with two compares and
// every answer equals a walk over the whole geometry tree. Each ring
// also stores a box: the union of its segments' boxes, widened in y as
// above and in x by OnSegment's tolerance plus the rounding slack of the
// ray's computed crossing. A point outside the box lies on no edge; its
// ray crosses no edge when it is right of, above or below the box, and
// every edge that straddles p.y when it is left of it, an even number on
// the closed ring. Either way the ring adds nothing to the even-odd parity
// and the locator skips it. (A ring with a NaN, infinite or huge
// coordinate gets no box.) In an `aei` run at N=40 (all dialects, seed
// 4242) a third of the 3.19M polygon scans skip a ring this way, sparing
// 31% of the segment tests, and the run takes 7% less CPU than without.
// Relate's kernel keeps each prepared operand in a per-thread operand cache
// (relate.h), so an operand is prepared once for all the kernel runs it takes
// part in while cached, and locates every node, midpoint and interior-point
// witness against it. For the kernel, Prepare also finds each polygon's
// interior-point witness (algo::InteriorPointOfPolygon) and stores it as a
// point: a prepared operand keeps no pointer into its geometry, so the cache
// can outlive the geometry it was prepared from. Locate can also return
// LocateAreal's answer from the same polygon scan, so a midpoint of two areal
// operands is scanned once per operand, not twice. LocatePoint and LocateAreal
// are thin wrappers that prepare their geometry and call the same locator; each
// prepares its own operand, so they share no buffers with Relate's.
//
// Locate makes no coverage registry hit and fires no fault itself: it adds
// the site it resolves at and the fault it fires to a Tally the caller
// supplies, and the caller applies the tally once per unit of work
// (Relate once per kernel run, LocatePoint once per call). A kernel run
// locates dozens of points, so this replaces dozens of atomic registry
// hits with one per reached site, and the relate memo keeps the tally as
// a record's whole account of effects.
#ifndef SPATTER_RELATE_POINT_LOCATOR_H_
#define SPATTER_RELATE_POINT_LOCATOR_H_

#include <cstdint>
#include <vector>

#include "algo/noding.h"
#include "algo/ring_ops.h"
#include "faults/fault.h"
#include "geom/geometry.h"
#include "relate/im_matrix.h"

namespace spatter::relate {

/// What one relate kernel run (or one located point) did besides its
/// answer: how often it reached each of the kernel's coverage sites, and
/// which of the two faults point location fires it fired. Apply hands it
/// to the coverage registry and the fault state.
struct Tally {
  enum Site : uint8_t {
    kLocateArealInterior,
    kLocateArealBoundary,
    kLocatePointElementInterior,
    kLocateMod2Boundary,
    kLocateLineInterior,
    kLocateExterior,
    kRelateArealVsNonareal,
    kRelateArealVsAreal,
    kNumSites,
  };
  uint32_t hits[kNumSites] = {};
  uint64_t fired = 0;  // FaultState::Bit of each fired id

  void Hit(Site site) { ++hits[site]; }
  void Fire(faults::FaultId id) { fired |= faults::FaultState::Bit(id); }
  /// CoverageRegistry::Hit(site, n) for each site reached n > 0 times and
  /// FaultState::Fire for each fired id: what hitting each site and firing
  /// each fault where it was reached would have left. `faults` may be null
  /// only when nothing fired.
  void Apply(const faults::FaultState* faults) const;
};

/// A geometry prepared for repeated point location at one tolerance, plus
/// the per-operand input of Relate's noder, all from one flatten.
class PreparedOperand {
 public:
  PreparedOperand() = default;
  PreparedOperand(const geom::Geometry& g, double eps) { Prepare(g, eps); }

  /// Flattens `g` for tolerance `eps` (>= 0, as every caller passes),
  /// reusing the buffers' capacity. Relate's kernel passes `noding`: its
  /// segments and points are replaced by g's noder input, and witnesses()
  /// is filled. The noder input is the segments of g's lines and rings, in
  /// ForEachBasic order (zero-length segments are dropped, and a line or
  /// ring with no other segment contributes its first point as one
  /// degenerate segment), then each non-empty point element as the
  /// degenerate segment {p, p}. Nothing prepared refers to `g` afterwards.
  void Prepare(const geom::Geometry& g, double eps,
               algo::NodingOperand* noding = nullptr);

  /// LocatePoint(p, g, eps, faults) for the prepared g, with the coverage
  /// site it resolves at and the fault it fires added to `*tally` (not
  /// null) instead of hit and fired: apply the tally to leave what
  /// LocatePoint leaves. When `areal` is not null it also receives
  /// LocateAreal(p), read off the same polygon scan, so the caller need
  /// not scan the polygons twice.
  Location Locate(const geom::Coord& p, const faults::FaultState* faults,
                  Tally* tally, Location* areal = nullptr) const;

  /// LocateAreal(p, g, eps) for the prepared g.
  Location LocateAreal(const geom::Coord& p) const;

  /// The interior point (algo::InteriorPointOfPolygon) of each non-empty
  /// polygon element that has one, in ForEachBasic order: Relate's
  /// dimension-2 witnesses. Empty unless Prepare was given `noding`.
  const std::vector<geom::Coord>& witnesses() const { return witnesses_; }
  /// True when g has at least one non-empty polygon component.
  bool areal() const { return areal_; }

 private:
  // One line or ring segment with OnSegment's box: the y-range in which
  // OnSegment or the ray-crossing test can hold for a query point, and the
  // x-range in which OnSegment can.
  struct Segment {
    geom::Coord a;
    geom::Coord b;
    double y_lo;  // min(a.y, b.y) - OnSegmentTolerance(a, b, eps)
    double y_hi;  // max(a.y, b.y) + OnSegmentTolerance(a, b, eps)
    double x_lo;  // min(a.x, b.x) - OnSegmentTolerance(a, b, eps)
    double x_hi;  // max(a.x, b.x) + OnSegmentTolerance(a, b, eps)
  };
  // One basic element that can affect a location. Empty points and
  // polygons, and lines of one point, never do and are not stored.
  struct Element {
    enum class Kind : uint8_t { kPoint, kLine, kEmptyLine, kPolygon };
    explicit Element(Kind k) : kind(k) {}
    Kind kind;
    bool open = false;   // kLine: not closed, so its endpoints count (mod 2)
    uint32_t begin = 0;  // kLine: into segments_; kPolygon: into rings_
    uint32_t end = 0;
    geom::Coord p;  // kPoint: the point; open kLine: the first point
    geom::Coord q;  // open kLine: the last point
  };
  struct Range {
    uint32_t begin;
    uint32_t end;
  };
  // One polygon ring: its segment range and a box outside which the ring
  // neither holds the point nor changes its crossing parity.
  struct Ring {
    Range segs;
    double x_lo;
    double x_hi;
    double y_lo;
    double y_hi;
  };
  // What one point's walk over a range of elements found.
  struct Scan;

  static Location Resolve(const Scan& scan, const faults::FaultState* faults,
                          Tally* tally);
  void Add(const geom::Geometry& g);
  void AddLine(const geom::LineString& line);
  void AddPolygon(const geom::Polygon& poly);
  void AddSegment(const geom::Coord& a, const geom::Coord& b);
  void AddNoderSegment(const geom::Coord& a, const geom::Coord& b);
  void AddRing(uint32_t first);
  void ScanElements(const geom::Coord& p, size_t first, size_t last,
                    Scan* scan) const;
  bool OnSegment(const geom::Coord& p, const Segment& s) const;
  bool OnAnySegment(const geom::Coord& p, Range segs) const;
  algo::RingLocation LocateInPolygon(const geom::Coord& p,
                                     const Element& poly) const;

  double eps_ = 0.0;
  std::vector<Element> elements_;
  std::vector<Segment> segments_;
  std::vector<Ring> rings_;  // one per ring of a located polygon
  // For a GEOMETRYCOLLECTION, the end of each top-level element's range in
  // elements_: the kGeosGcBoundaryLastOneWins path resolves them apart.
  bool collection_ = false;
  std::vector<uint32_t> element_ends_;
  bool areal_ = false;
  std::vector<geom::Coord> witnesses_;
  algo::NodingOperand* noding_ = nullptr;  // during Prepare only
};

/// Locates `p` relative to `g` (Interior / Boundary / Exterior).
///
/// Priority rules for mixed collections:
///   1. interior of any areal element        -> Interior
///   2. on a ring of any areal element       -> Boundary
///   3. equal to a point element             -> Interior
///   4. odd endpoint count over line elements-> Boundary   (mod-2 rule)
///   5. on a line element                    -> Interior
///   6. otherwise                            -> Exterior
///
/// With kGeosGcBoundaryLastOneWins enabled, GEOMETRYCOLLECTIONs are instead
/// resolved by taking the location within the *last* element that does not
/// report Exterior — the buggy strategy GEOS developers described.
///
/// Equals PreparedOperand(g, eps).Locate(p, faults, &tally) with the tally
/// applied.
Location LocatePoint(const geom::Coord& p, const geom::Geometry& g,
                     double eps = 0.0,
                     const faults::FaultState* faults = nullptr);

/// Location relative to only the areal (polygon) components of `g`, with
/// union / interior-priority combination. Used by the relate computer's
/// dimension-2 rules. Equals PreparedOperand(g, eps).LocateAreal(p).
Location LocateAreal(const geom::Coord& p, const geom::Geometry& g,
                     double eps = 0.0);

}  // namespace spatter::relate

#endif  // SPATTER_RELATE_POINT_LOCATOR_H_
