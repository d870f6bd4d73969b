#include "algo/boundary.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

namespace spatter::algo {

using geom::Coord;
using geom::Geometry;
using geom::GeomPtr;
using geom::GeomType;

namespace {

// The boundary rule for one basic element, shared by Boundary and
// BoundaryDimension: a point adds nothing, a line of at least 2 points that
// is not closed adds both endpoints (counted mod 2 across all lines), and a
// polygon adds each non-empty ring.
template <typename OnEndpoint, typename OnRing>
void AddElementBoundary(const Geometry& basic, OnEndpoint on_endpoint,
                        OnRing on_ring) {
  switch (basic.type()) {
    case GeomType::kLineString: {
      const auto& line = geom::AsLineString(basic);
      if (line.NumPoints() < 2 || line.IsClosed()) break;
      on_endpoint(line.points().front());
      on_endpoint(line.points().back());
      break;
    }
    case GeomType::kPolygon:
      for (const auto& ring : geom::AsPolygon(basic).rings()) {
        if (!ring.empty()) on_ring(ring);
      }
      break;
    default:
      break;  // points have empty boundary.
  }
}

// Appends the endpoints of g's open lines to `endpoints`; returns true, and
// stops, at the first non-empty ring. Recurses as geom::ForEachBasic does.
bool CollectBoundary(const Geometry& g, std::vector<Coord>* endpoints) {
  if (g.IsCollection()) {
    const auto& coll = geom::AsCollection(g);
    for (size_t i = 0; i < coll.NumElements(); ++i) {
      if (CollectBoundary(coll.ElementAt(i), endpoints)) return true;
    }
    return false;
  }
  bool ring = false;
  AddElementBoundary(
      g, [endpoints](const Coord& c) { endpoints->push_back(c); },
      [&ring](const std::vector<Coord>&) { ring = true; });
  return ring;
}

// Accumulates endpoint parity across line elements and ring lines from
// areal elements.
struct BoundaryAccumulator {
  std::map<Coord, int> endpoint_count;
  std::vector<std::vector<Coord>> rings;

  void Add(const Geometry& basic) {
    AddElementBoundary(
        basic, [this](const Coord& c) { endpoint_count[c]++; },
        [this](const std::vector<Coord>& ring) { rings.push_back(ring); });
  }

  std::vector<Coord> Mod2Points() const {
    std::vector<Coord> out;
    for (const auto& [pt, count] : endpoint_count) {
      if (count % 2 == 1) out.push_back(pt);
    }
    return out;
  }
};

}  // namespace

GeomPtr Boundary(const Geometry& g) {
  BoundaryAccumulator acc;
  geom::ForEachBasic(g, [&acc](const Geometry& basic) { acc.Add(basic); });
  const std::vector<Coord> pts = acc.Mod2Points();

  const bool has_points = !pts.empty();
  const bool has_rings = !acc.rings.empty();

  if (!has_points && !has_rings) {
    // Empty boundary: match PostGIS result types by input dimension.
    switch (g.Dimension()) {
      case 1:
        return geom::MakeEmpty(GeomType::kMultiPoint);
      case 2:
        return geom::MakeEmpty(GeomType::kMultiLineString);
      default:
        return geom::MakeEmpty(GeomType::kGeometryCollection);
    }
  }

  std::vector<GeomPtr> point_elems;
  point_elems.reserve(pts.size());
  for (const auto& p : pts) point_elems.push_back(geom::MakePoint(p.x, p.y));

  std::vector<GeomPtr> line_elems;
  line_elems.reserve(acc.rings.size());
  for (auto& ring : acc.rings) {
    line_elems.push_back(geom::MakeLineString(ring));
  }

  if (has_points && has_rings) {
    std::vector<GeomPtr> all;
    for (auto& e : point_elems) all.push_back(std::move(e));
    for (auto& e : line_elems) all.push_back(std::move(e));
    return geom::MakeCollection(GeomType::kGeometryCollection, std::move(all));
  }
  if (has_points) {
    if (point_elems.size() == 1) return std::move(point_elems[0]);
    return geom::MakeCollection(GeomType::kMultiPoint,
                                std::move(point_elems));
  }
  if (line_elems.size() == 1) return std::move(line_elems[0]);
  return geom::MakeCollection(GeomType::kMultiLineString,
                              std::move(line_elems));
}

int BoundaryDimension(const Geometry& g) {
  thread_local std::vector<Coord> endpoints;  // never re-entered
  endpoints.clear();
  if (CollectBoundary(g, &endpoints)) return 1;
  for (const Coord& c : endpoints) {
    // NaN is no strict weak order, so a sort need not group it as the
    // map does: only the map itself gives the map's answer.
    if (std::isnan(c.x) || std::isnan(c.y)) return Boundary(g)->Dimension();
  }
  std::sort(endpoints.begin(), endpoints.end());
  for (size_t i = 0; i < endpoints.size();) {
    size_t j = i + 1;
    while (j < endpoints.size() && !(endpoints[i] < endpoints[j])) ++j;
    if ((j - i) % 2 == 1) return 0;
    i = j;
  }
  return -1;
}

}  // namespace spatter::algo
