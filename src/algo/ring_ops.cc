#include "algo/ring_ops.h"

#include <algorithm>
#include <cmath>

#include "geom/predicates.h"

namespace spatter::algo {

using geom::Coord;
using geom::Geometry;
using geom::Polygon;

double SignedRingArea(const std::vector<Coord>& ring) {
  if (ring.size() < 3) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i + 1 < ring.size(); ++i) {
    sum += ring[i].x * ring[i + 1].y - ring[i + 1].x * ring[i].y;
  }
  // Close implicitly if the ring is not closed.
  if (ring.front() != ring.back()) {
    sum += ring.back().x * ring.front().y - ring.front().x * ring.back().y;
  }
  return sum / 2.0;
}

bool IsCcw(const std::vector<Coord>& ring) {
  return SignedRingArea(ring) > 0.0;
}

RingLocation LocateInRing(const Coord& p, const std::vector<Coord>& ring,
                          double eps) {
  if (ring.size() < 2) return RingLocation::kExterior;
  bool inside = false;
  for (size_t i = 0; i + 1 < ring.size(); ++i) {
    if (RingEdgeStep(p, ring[i], ring[i + 1], eps, &inside)) {
      return RingLocation::kBoundary;
    }
  }
  // Closing edge when the sequence is not explicitly closed.
  if (ring.front() != ring.back() &&
      RingEdgeStep(p, ring.back(), ring.front(), eps, &inside)) {
    return RingLocation::kBoundary;
  }
  return inside ? RingLocation::kInterior : RingLocation::kExterior;
}

RingLocation LocateInPolygon(const Coord& p, const Polygon& poly, double eps) {
  if (poly.IsEmpty()) return RingLocation::kExterior;
  // Even-odd over all rings: boundary if on any ring; interior if inside an
  // odd number of rings. This matches the even-odd fill rule and degrades
  // gracefully for invalid polygons.
  int parity = 0;
  for (const auto& ring : poly.rings()) {
    const RingLocation loc = LocateInRing(p, ring, eps);
    if (loc == RingLocation::kBoundary) return RingLocation::kBoundary;
    if (loc == RingLocation::kInterior) parity ^= 1;
  }
  return parity ? RingLocation::kInterior : RingLocation::kExterior;
}

double PolygonArea(const Polygon& poly) {
  if (poly.IsEmpty()) return 0.0;
  double area = std::fabs(SignedRingArea(poly.Shell()));
  for (size_t i = 1; i < poly.NumRings(); ++i) {
    area -= std::fabs(SignedRingArea(poly.rings()[i]));
  }
  return std::max(area, 0.0);
}

double GeometryArea(const Geometry& g) {
  double area = 0.0;
  geom::ForEachBasic(g, [&area](const Geometry& basic) {
    if (basic.type() == geom::GeomType::kPolygon) {
      area += PolygonArea(geom::AsPolygon(basic));
    }
  });
  return area;
}

double GeometryLength(const Geometry& g) {
  double len = 0.0;
  geom::ForEachBasic(g, [&len](const Geometry& basic) {
    if (basic.type() == geom::GeomType::kLineString) {
      const auto& pts = geom::AsLineString(basic).points();
      for (size_t i = 0; i + 1 < pts.size(); ++i) {
        len += geom::DistanceBetween(pts[i], pts[i + 1]);
      }
    }
  });
  return len;
}

std::optional<Coord> InteriorPointOfPolygon(const Polygon& poly) {
  if (poly.IsEmpty()) return std::nullopt;
  // Per-thread scratch reused across calls (the function never re-enters
  // itself), so a warm call allocates nothing.
  thread_local std::vector<double> ys;
  thread_local std::vector<double> xs;
  // Collect distinct vertex y values.
  ys.clear();
  for (const auto& ring : poly.rings()) {
    for (const auto& c : ring) ys.push_back(c.y);
  }
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
  if (ys.size() < 2) return std::nullopt;

  // Try scanlines between consecutive distinct vertex ys, widest spans
  // first; verify each candidate with the point-in-polygon test.
  for (size_t yi = 0; yi + 1 < ys.size(); ++yi) {
    const double y = (ys[yi] + ys[yi + 1]) / 2.0;
    // Gather x crossings of the scanline with every ring edge.
    xs.clear();
    for (const auto& ring : poly.rings()) {
      const size_t n = ring.size();
      for (size_t i = 0; i + 1 < n; ++i) {
        const Coord& a = ring[i];
        const Coord& b = ring[i + 1];
        if ((a.y > y) != (b.y > y)) {
          xs.push_back(a.x + (y - a.y) / (b.y - a.y) * (b.x - a.x));
        }
      }
      if (n >= 2 && ring.front() != ring.back()) {
        const Coord& a = ring.back();
        const Coord& b = ring.front();
        if ((a.y > y) != (b.y > y)) {
          xs.push_back(a.x + (y - a.y) / (b.y - a.y) * (b.x - a.x));
        }
      }
    }
    if (xs.size() < 2) continue;
    std::sort(xs.begin(), xs.end());
    // Candidate midpoints of alternating spans (even-odd: spans between
    // crossing 0-1, 2-3, ... are inside).
    for (size_t i = 0; i + 1 < xs.size(); i += 2) {
      if (xs[i + 1] - xs[i] <= 0.0) continue;
      const Coord candidate{(xs[i] + xs[i + 1]) / 2.0, y};
      if (LocateInPolygon(candidate, poly, geom::kDerivedEps) ==
          RingLocation::kInterior) {
        return candidate;
      }
    }
  }
  return std::nullopt;
}

}  // namespace spatter::algo
