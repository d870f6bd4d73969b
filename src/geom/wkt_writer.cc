#include "geom/wkt_writer.h"

#include <cmath>

#include "common/strings.h"

namespace spatter::geom {

namespace {

void WriteCoord(const Coord& c, std::string* out) {
  out->append(FormatCoord(c.x));
  out->push_back(' ');
  out->append(FormatCoord(c.y));
}

void WriteCoordSeq(const std::vector<Coord>& pts, std::string* out) {
  out->push_back('(');
  for (size_t i = 0; i < pts.size(); ++i) {
    if (i > 0) out->push_back(',');
    WriteCoord(pts[i], out);
  }
  out->push_back(')');
}

// Writes the body (everything after the type keyword) of a geometry.
// `tagged` controls whether nested elements repeat their type keyword.
void WriteBody(const Geometry& g, std::string* out);

void WriteElement(const Geometry& g, bool with_tag, std::string* out) {
  if (with_tag) {
    out->append(g.TypeName());
    out->push_back(' ');
    const size_t mark = out->size();
    WriteBody(g, out);
    // "POINT (1 2)" -> "POINT(1 2)"; the space stays before "EMPTY".
    if (mark < out->size() && (*out)[mark] == '(') out->erase(mark - 1, 1);
  } else if (g.IsEmpty()) {
    out->append("EMPTY");
  } else {
    WriteBody(g, out);
  }
}

void WriteBody(const Geometry& g, std::string* out) {
  if (g.IsEmpty() && !g.IsCollection()) {
    out->append("EMPTY");
    return;
  }
  switch (g.type()) {
    case GeomType::kPoint: {
      out->push_back('(');
      WriteCoord(*AsPoint(g).coord(), out);
      out->push_back(')');
      return;
    }
    case GeomType::kLineString: {
      WriteCoordSeq(AsLineString(g).points(), out);
      return;
    }
    case GeomType::kPolygon: {
      const auto& rings = AsPolygon(g).rings();
      out->push_back('(');
      for (size_t i = 0; i < rings.size(); ++i) {
        if (i > 0) out->push_back(',');
        WriteCoordSeq(rings[i], out);
      }
      out->push_back(')');
      return;
    }
    case GeomType::kMultiPoint:
    case GeomType::kMultiLineString:
    case GeomType::kMultiPolygon: {
      const auto& coll = AsCollection(g);
      if (coll.NumElements() == 0) {
        out->append("EMPTY");
        return;
      }
      out->push_back('(');
      for (size_t i = 0; i < coll.NumElements(); ++i) {
        if (i > 0) out->push_back(',');
        WriteElement(coll.ElementAt(i), /*with_tag=*/false, out);
      }
      out->push_back(')');
      return;
    }
    case GeomType::kGeometryCollection: {
      const auto& coll = AsCollection(g);
      if (coll.NumElements() == 0) {
        out->append("EMPTY");
        return;
      }
      out->push_back('(');
      for (size_t i = 0; i < coll.NumElements(); ++i) {
        if (i > 0) out->push_back(',');
        WriteElement(coll.ElementAt(i), /*with_tag=*/true, out);
      }
      out->push_back(')');
      return;
    }
  }
}

}  // namespace

std::string WriteWkt(const Geometry& g) {
  std::string out = g.TypeName();
  out.push_back(' ');
  const size_t mark = out.size();
  WriteBody(g, &out);
  // "POINT (1 2)" -> "POINT(1 2)": PostGIS style omits the space before '('.
  if (mark < out.size() && out[mark] == '(') out.erase(mark - 1, 1);
  return out;
}

namespace {

// -0 -> +0; false for a coordinate WriteWkt cannot print back.
bool NormalizeCoord(Coord* c) {
  if (!std::isfinite(c->x) || !std::isfinite(c->y)) return false;
  if (c->x == 0.0) c->x = 0.0;
  if (c->y == 0.0) c->y = 0.0;
  return true;
}

bool NormalizeCoords(std::vector<Coord>* pts) {
  for (Coord& c : *pts) {
    if (!NormalizeCoord(&c)) return false;
  }
  return true;
}

}  // namespace

bool NormalizeForWkt(Geometry* g) {
  switch (g->type()) {
    case GeomType::kPoint: {
      auto* point = static_cast<Point*>(g);
      if (point->IsEmpty()) return true;
      Coord c = *point->coord();
      if (!NormalizeCoord(&c)) return false;
      point->set_coord(c);
      return true;
    }
    case GeomType::kLineString:
      return NormalizeCoords(&static_cast<LineString*>(g)->mutable_points());
    case GeomType::kPolygon: {
      // An empty ring, shell or hole, is what the round trip loses.
      for (Polygon::Ring& ring : static_cast<Polygon*>(g)->mutable_rings()) {
        if (ring.empty() || !NormalizeCoords(&ring)) return false;
      }
      return true;
    }
    case GeomType::kMultiPoint:
    case GeomType::kMultiLineString:
    case GeomType::kMultiPolygon:
    case GeomType::kGeometryCollection: {
      const std::optional<GeomType> element = MultiElementType(g->type());
      for (GeomPtr& e : static_cast<GeometryCollection*>(g)
                            ->mutable_elements()) {
        if (element && e->type() != *element) return false;
        if (!NormalizeForWkt(e.get())) return false;
      }
      return true;
    }
  }
  return false;
}

}  // namespace spatter::geom
