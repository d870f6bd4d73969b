#include "geom/predicates.h"

#include <algorithm>
#include <cmath>

namespace spatter::geom {

namespace {

// Projects collinear point p onto the dominant axis of segment [a,b] and
// returns the scalar parameter (0 at a, 1 at b).
double ParamOnSegment(const Coord& p, const Coord& a, const Coord& b) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  if (std::fabs(dx) >= std::fabs(dy)) {
    return dx == 0.0 ? 0.0 : (p.x - a.x) / dx;
  }
  return dy == 0.0 ? 0.0 : (p.y - a.y) / dy;
}

Coord Interpolate(const Coord& a, const Coord& b, double t) {
  return {a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t};
}

}  // namespace

SegSegIntersection IntersectSegments(const Coord& a, const Coord& b,
                                     const Coord& c, const Coord& d,
                                     double eps) {
  SegSegIntersection out;
  const int o1 = Orientation(a, b, c, eps);
  const int o2 = Orientation(a, b, d, eps);
  const int o3 = Orientation(c, d, a, eps);
  const int o4 = Orientation(c, d, b, eps);

  if (o1 == 0 && o2 == 0) {
    // Segments are collinear (or one of [c,d] degenerate on line ab).
    // Compute overlap via parameters of c and d on [a,b].
    if (a == b) {
      // Degenerate first segment.
      if (OnSegment(a, c, d, eps)) {
        out.kind = SegSegIntersection::Kind::kPoint;
        out.p0 = a;
      }
      return out;
    }
    double tc = ParamOnSegment(c, a, b);
    double td = ParamOnSegment(d, a, b);
    if (tc > td) std::swap(tc, td);
    const double lo = std::max(0.0, tc);
    const double hi = std::min(1.0, td);
    if (lo > hi + eps) return out;  // disjoint along the line.
    const Coord p_lo = Interpolate(a, b, std::clamp(lo, 0.0, 1.0));
    const Coord p_hi = Interpolate(a, b, std::clamp(hi, 0.0, 1.0));
    if (std::fabs(hi - lo) <= eps || p_lo == p_hi) {
      out.kind = SegSegIntersection::Kind::kPoint;
      out.p0 = p_lo;
    } else {
      out.kind = SegSegIntersection::Kind::kOverlap;
      out.p0 = p_lo;
      out.p1 = p_hi;
    }
    return out;
  }

  // Proper or touching intersection.
  if (o1 != o2 && o3 != o4) {
    // At least one endpoint may lie exactly on the other segment; prefer
    // snapping to an existing endpoint to avoid drift.
    if (o1 == 0) {
      out.kind = SegSegIntersection::Kind::kPoint;
      out.p0 = c;
      return out;
    }
    if (o2 == 0) {
      out.kind = SegSegIntersection::Kind::kPoint;
      out.p0 = d;
      return out;
    }
    if (o3 == 0) {
      out.kind = SegSegIntersection::Kind::kPoint;
      out.p0 = a;
      return out;
    }
    if (o4 == 0) {
      out.kind = SegSegIntersection::Kind::kPoint;
      out.p0 = b;
      return out;
    }
    // Proper crossing: solve the 2x2 linear system.
    const double rx = b.x - a.x;
    const double ry = b.y - a.y;
    const double sx = d.x - c.x;
    const double sy = d.y - c.y;
    const double denom = rx * sy - ry * sx;
    const double t = ((c.x - a.x) * sy - (c.y - a.y) * sx) / denom;
    out.kind = SegSegIntersection::Kind::kPoint;
    out.p0 = {a.x + t * rx, a.y + t * ry};
    return out;
  }

  // Touching cases where an endpoint lies on the other segment but the
  // orientations did not bracket (e.g. T-junction with o3 == o4 == 0 not
  // possible here since not both collinear; handle endpoint-on-segment).
  if (o1 == 0 && OnSegment(c, a, b, eps)) {
    out.kind = SegSegIntersection::Kind::kPoint;
    out.p0 = c;
  } else if (o2 == 0 && OnSegment(d, a, b, eps)) {
    out.kind = SegSegIntersection::Kind::kPoint;
    out.p0 = d;
  } else if (o3 == 0 && OnSegment(a, c, d, eps)) {
    out.kind = SegSegIntersection::Kind::kPoint;
    out.p0 = a;
  } else if (o4 == 0 && OnSegment(b, c, d, eps)) {
    out.kind = SegSegIntersection::Kind::kPoint;
    out.p0 = b;
  }
  return out;
}

}  // namespace spatter::geom
