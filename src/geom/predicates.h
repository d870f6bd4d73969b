// Low-level geometric predicates on coordinates: orientation, on-segment
// tests, and segment-segment intersection (including collinear overlap).
//
// Robustness note: campaign coordinates are integers (|v| well below 2^26),
// so the double-precision cross products below are exact for original
// vertices. Derived points (intersections, midpoints) are rationals carrying
// rounding error around 1e-12; predicates therefore accept a small epsilon
// for those call sites.
#ifndef SPATTER_GEOM_PREDICATES_H_
#define SPATTER_GEOM_PREDICATES_H_

#include <algorithm>
#include <cmath>

#include "geom/coordinate.h"

namespace spatter::geom {

// The predicates below sit on the relate kernel's innermost loops, so they
// are inline. The baseline x86-64 target has no FMA instruction, so the
// compiler cannot fuse their products and they give the same bits inline
// as out of line. (GCC's C++ default is -ffp-contract=fast even in ISO
// mode, so a build for an FMA target could fuse them in either form.)

/// Twice the signed area of triangle abc (the raw cross product).
inline double CrossProduct(const Coord& a, const Coord& b, const Coord& c) {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

/// Sign of the z-component of (b-a) x (c-a):
/// +1 counter-clockwise, -1 clockwise, 0 collinear (within eps).
inline int Orientation(const Coord& a, const Coord& b, const Coord& c,
                       double eps = 0.0) {
  const double cross = CrossProduct(a, b, c);
  // Scale the tolerance by the magnitude of the operands so the predicate
  // behaves uniformly for large coordinates produced by affine transforms.
  const double scale =
      std::max({std::fabs(b.x - a.x), std::fabs(b.y - a.y),
                std::fabs(c.x - a.x), std::fabs(c.y - a.y), 1.0});
  const double tol = eps * scale;
  if (cross > tol) return 1;
  if (cross < -tol) return -1;
  return 0;
}

/// Tolerance of OnSegment(p, a, b, eps): eps scaled by the largest
/// coordinate magnitude of the segment.
inline double OnSegmentTolerance(const Coord& a, const Coord& b, double eps) {
  return eps * std::max({std::fabs(a.x), std::fabs(a.y), std::fabs(b.x),
                         std::fabs(b.y), 1.0});
}

/// True if p lies on the closed segment [a, b]. The box test runs before
/// the orientation test; both are pure, so the order only saves work.
inline bool OnSegment(const Coord& p, const Coord& a, const Coord& b,
                      double eps = 0.0) {
  const double tol = OnSegmentTolerance(a, b, eps);
  if (!(p.x >= std::min(a.x, b.x) - tol && p.x <= std::max(a.x, b.x) + tol &&
        p.y >= std::min(a.y, b.y) - tol && p.y <= std::max(a.y, b.y) + tol)) {
    return false;
  }
  return Orientation(a, b, p, eps) == 0;
}

/// Result of intersecting two closed segments.
struct SegSegIntersection {
  enum class Kind {
    kNone,     ///< disjoint
    kPoint,    ///< single intersection point (stored in p0)
    kOverlap,  ///< collinear overlap along [p0, p1]
  };
  Kind kind = Kind::kNone;
  Coord p0;
  Coord p1;
};

/// Intersects segments [a,b] and [c,d]. Collinear overlaps report the
/// shared sub-segment endpoints; touching at one point reports kPoint.
SegSegIntersection IntersectSegments(const Coord& a, const Coord& b,
                                     const Coord& c, const Coord& d,
                                     double eps = 0.0);

/// Default epsilon for predicates evaluated on derived (non-integer)
/// points such as noded intersection vertices and edge midpoints.
inline constexpr double kDerivedEps = 1e-9;

}  // namespace spatter::geom

#endif  // SPATTER_GEOM_PREDICATES_H_
