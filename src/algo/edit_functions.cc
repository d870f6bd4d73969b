#include "algo/edit_functions.h"

#include <algorithm>

#include "algo/ring_ops.h"
#include "common/coverage.h"

namespace spatter::algo {

using geom::Coord;
using geom::Geometry;
using geom::GeomPtr;
using geom::GeomType;

Result<GeomPtr> SetPoint(const Geometry& g, size_t index, Coord p) {
  if (g.type() != GeomType::kLineString) {
    return Status::InvalidArgument("SetPoint expects a LINESTRING");
  }
  const auto& line = geom::AsLineString(g);
  if (index >= line.NumPoints()) {
    return Status::OutOfRange("SetPoint index out of range");
  }
  std::vector<Coord> pts = line.points();
  pts[index] = p;
  SPATTER_COV("edit", "set_point");
  return geom::MakeLineString(std::move(pts));
}

Result<GeomPtr> DumpRings(const Geometry& g) {
  if (g.type() != GeomType::kPolygon) {
    return Status::InvalidArgument("DumpRings expects a POLYGON");
  }
  const auto& poly = geom::AsPolygon(g);
  if (poly.IsEmpty()) {
    return Status::InvalidArgument("DumpRings on empty polygon");
  }
  std::vector<GeomPtr> rings;
  for (const auto& ring : poly.rings()) {
    rings.push_back(geom::MakePolygon({ring}));
  }
  SPATTER_COV("edit", "dump_rings");
  return geom::MakeCollection(GeomType::kGeometryCollection,
                              std::move(rings));
}

namespace {

GeomPtr ForceCwPolygon(const geom::Polygon& poly) {
  std::vector<geom::Polygon::Ring> rings;
  rings.reserve(poly.NumRings());
  for (size_t i = 0; i < poly.NumRings(); ++i) {
    auto ring = poly.rings()[i];
    const bool want_ccw = i > 0;  // exterior CW, holes CCW.
    if (IsCcw(ring) != want_ccw) std::reverse(ring.begin(), ring.end());
    rings.push_back(std::move(ring));
  }
  return geom::MakePolygon(std::move(rings));
}

}  // namespace

Result<GeomPtr> ForcePolygonCW(const Geometry& g) {
  if (g.type() == GeomType::kPolygon) {
    SPATTER_COV("edit", "force_polygon_cw");
    return ForceCwPolygon(geom::AsPolygon(g));
  }
  if (g.type() == GeomType::kMultiPolygon) {
    const auto& coll = geom::AsCollection(g);
    std::vector<GeomPtr> elems;
    for (size_t i = 0; i < coll.NumElements(); ++i) {
      elems.push_back(ForceCwPolygon(geom::AsPolygon(coll.ElementAt(i))));
    }
    SPATTER_COV("edit", "force_multipolygon_cw");
    return geom::MakeCollection(GeomType::kMultiPolygon, std::move(elems));
  }
  return Status::InvalidArgument(
      "ForcePolygonCW expects POLYGON or MULTIPOLYGON");
}

Result<GeomPtr> GeometryN(const Geometry& g, size_t n) {
  if (!g.IsCollection()) {
    return Status::InvalidArgument("GeometryN expects a collection");
  }
  const auto& coll = geom::AsCollection(g);
  if (n < 1 || n > coll.NumElements()) {
    return Status::OutOfRange("GeometryN index out of range");
  }
  SPATTER_COV("edit", "geometry_n");
  return coll.ElementAt(n - 1).Clone();
}

Result<GeomPtr> CollectionExtract(const Geometry& g, GeomType type) {
  if (geom::IsCollectionType(type) || !g.IsCollection()) {
    if (!g.IsCollection()) {
      // PostGIS semantics: a basic geometry is returned as-is when it
      // matches, empty otherwise.
      if (g.type() == type) return g.Clone();
      return geom::MakeEmpty(type);
    }
    return Status::InvalidArgument("CollectionExtract expects a basic type");
  }
  std::vector<GeomPtr> extracted;
  geom::ForEachBasic(g, [&](const Geometry& basic) {
    if (basic.type() == type && !basic.IsEmpty()) {
      extracted.push_back(basic.Clone());
    }
  });
  GeomType multi = GeomType::kGeometryCollection;
  switch (type) {
    case GeomType::kPoint:
      multi = GeomType::kMultiPoint;
      break;
    case GeomType::kLineString:
      multi = GeomType::kMultiLineString;
      break;
    case GeomType::kPolygon:
      multi = GeomType::kMultiPolygon;
      break;
    default:
      break;
  }
  SPATTER_COV("edit", "collection_extract");
  return geom::MakeCollection(multi, std::move(extracted));
}

Result<GeomPtr> PointN(const Geometry& g, size_t n) {
  if (g.type() != GeomType::kLineString) {
    return Status::InvalidArgument("PointN expects a LINESTRING");
  }
  const auto& line = geom::AsLineString(g);
  if (n < 1 || n > line.NumPoints()) {
    return Status::OutOfRange("PointN index out of range");
  }
  SPATTER_COV("edit", "point_n");
  const Coord& c = line.PointAt(n - 1);
  return geom::MakePoint(c.x, c.y);
}

Result<GeomPtr> Reverse(const Geometry& g) {
  GeomPtr out = g.Clone();
  // Reverse every coordinate sequence in place.
  std::function<void(Geometry*)> rec = [&rec](Geometry* cur) {
    switch (cur->type()) {
      case GeomType::kLineString: {
        auto* line = static_cast<geom::LineString*>(cur);
        std::reverse(line->mutable_points().begin(),
                     line->mutable_points().end());
        break;
      }
      case GeomType::kPolygon: {
        auto* poly = static_cast<geom::Polygon*>(cur);
        for (auto& ring : poly->mutable_rings()) {
          std::reverse(ring.begin(), ring.end());
        }
        break;
      }
      case GeomType::kPoint:
        break;
      default: {
        auto* coll = static_cast<geom::GeometryCollection*>(cur);
        for (auto& e : coll->mutable_elements()) rec(e.get());
      }
    }
  };
  rec(out.get());
  SPATTER_COV("edit", "reverse");
  return out;
}

Result<GeomPtr> EnvelopeOf(const Geometry& g) {
  const geom::Envelope env = g.GetEnvelope();
  if (env.IsNull()) return Status::InvalidArgument("Envelope of empty input");
  SPATTER_COV("edit", "envelope");
  if (env.Width() == 0.0 && env.Height() == 0.0) {
    return geom::MakePoint(env.min_x(), env.min_y());
  }
  if (env.Width() == 0.0 || env.Height() == 0.0) {
    return geom::MakeLineString(
        {{env.min_x(), env.min_y()}, {env.max_x(), env.max_y()}});
  }
  return geom::MakePolygon({{{env.min_x(), env.min_y()},
                             {env.max_x(), env.min_y()},
                             {env.max_x(), env.max_y()},
                             {env.min_x(), env.max_y()},
                             {env.min_x(), env.min_y()}}});
}

Result<GeomPtr> Collect(const Geometry& a, const Geometry& b) {
  SPATTER_COV("edit", "collect");
  std::vector<GeomPtr> elems;
  elems.push_back(a.Clone());
  elems.push_back(b.Clone());
  if (a.type() == b.type() && !a.IsCollection()) {
    switch (a.type()) {
      case GeomType::kPoint:
        return geom::MakeCollection(GeomType::kMultiPoint, std::move(elems));
      case GeomType::kLineString:
        return geom::MakeCollection(GeomType::kMultiLineString,
                                    std::move(elems));
      case GeomType::kPolygon:
        return geom::MakeCollection(GeomType::kMultiPolygon,
                                    std::move(elems));
      default:
        break;
    }
  }
  return geom::MakeCollection(GeomType::kGeometryCollection,
                              std::move(elems));
}

}  // namespace spatter::algo
