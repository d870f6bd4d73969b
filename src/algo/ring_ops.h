// Ring-level operations: signed area, orientation, point-in-ring /
// point-in-polygon location, interior-point computation.
#ifndef SPATTER_ALGO_RING_OPS_H_
#define SPATTER_ALGO_RING_OPS_H_

#include <optional>
#include <vector>

#include "geom/geometry.h"
#include "geom/predicates.h"

namespace spatter::algo {

/// Point location relative to a point set.
enum class RingLocation { kInterior, kBoundary, kExterior };

/// Signed area of a closed ring (positive when counter-clockwise).
double SignedRingArea(const std::vector<geom::Coord>& ring);

/// True when the ring winds counter-clockwise (positive signed area).
bool IsCcw(const std::vector<geom::Coord>& ring);

/// One edge [a, b] of the even-odd ray cast toward +x. Returns true when
/// `p` lies on the edge (within `eps`, as OnSegment); otherwise flips
/// `*inside` when the ray crosses the edge. The half-open rule on y makes a
/// ray through a vertex count once. LocateInRing takes this step; the
/// relate kernel's prepared locator writes it out inline against its
/// stored segment boxes (relate/point_locator.cc), so the two must change
/// together.
inline bool RingEdgeStep(const geom::Coord& p, const geom::Coord& a,
                         const geom::Coord& b, double eps, bool* inside) {
  if (geom::OnSegment(p, a, b, eps)) return true;
  if ((a.y > p.y) != (b.y > p.y)) {
    const double x_cross = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
    if (x_cross > p.x) *inside = !*inside;
  }
  return false;
}

/// Locates `p` relative to a single closed ring using the even-odd rule.
/// `eps` loosens the boundary test for derived (non-integer) points.
RingLocation LocateInRing(const geom::Coord& p,
                          const std::vector<geom::Coord>& ring,
                          double eps = 0.0);

/// Locates `p` relative to a polygon (shell + holes, even-odd semantics;
/// consistent results even for invalid self-intersecting rings).
RingLocation LocateInPolygon(const geom::Coord& p, const geom::Polygon& poly,
                             double eps = 0.0);

/// Area of a polygon (shell minus holes, absolute).
double PolygonArea(const geom::Polygon& poly);

/// Total area over all areal components of any geometry.
double GeometryArea(const geom::Geometry& g);

/// Total length over all 1-dimensional components (rings excluded).
double GeometryLength(const geom::Geometry& g);

/// A point guaranteed to lie strictly inside the polygon, if one exists
/// (scanline through the interior with verification). Returns nullopt for
/// empty or degenerate (zero-area) polygons.
std::optional<geom::Coord> InteriorPointOfPolygon(const geom::Polygon& poly);

}  // namespace spatter::algo

#endif  // SPATTER_ALGO_RING_OPS_H_
