#include "relate/named_predicates.h"

#include "common/coverage.h"
#include "geom/predicates.h"
#include "relate/relate.h"

namespace spatter::relate {

using geom::Geometry;
using geom::GeomType;

namespace {

bool HasClosedLineElement(const Geometry& g, geom::Coord* start_out) {
  bool found = false;
  geom::ForEachBasic(g, [&](const Geometry& basic) {
    if (found) return;
    if (basic.type() == GeomType::kLineString &&
        geom::AsLineString(basic).IsRing()) {
      *start_out = geom::AsLineString(basic).points().front();
      found = true;
    }
  });
  return found;
}

bool HasPointElementInMixed(const Geometry& g) {
  if (g.type() != GeomType::kGeometryCollection) return false;
  bool found = false;
  geom::ForEachBasic(g, [&found](const Geometry& basic) {
    if (basic.type() == GeomType::kPoint && !basic.IsEmpty()) found = true;
  });
  return found;
}

bool SharesEndpoint(const Geometry& a, const Geometry& b) {
  std::vector<geom::Coord> ends_a;
  geom::ForEachBasic(a, [&](const Geometry& basic) {
    if (basic.type() == GeomType::kLineString && !basic.IsEmpty() &&
        !geom::AsLineString(basic).IsClosed()) {
      ends_a.push_back(geom::AsLineString(basic).points().front());
      ends_a.push_back(geom::AsLineString(basic).points().back());
    }
  });
  bool shared = false;
  geom::ForEachBasic(b, [&](const Geometry& basic) {
    if (basic.type() == GeomType::kLineString && !basic.IsEmpty() &&
        !geom::AsLineString(basic).IsClosed()) {
      for (const auto& e : {geom::AsLineString(basic).points().front(),
                            geom::AsLineString(basic).points().back()}) {
        for (const auto& f : ends_a) {
          if (e == f) shared = true;
        }
      }
    }
  });
  return shared;
}

bool IsAreal(const Geometry& g) { return g.Dimension() == 2; }

bool AnyPolygonHasHoles(const Geometry& g) {
  bool holes = false;
  geom::ForEachBasic(g, [&holes](const Geometry& basic) {
    if (basic.type() == GeomType::kPolygon &&
        geom::AsPolygon(basic).NumHoles() > 0) {
      holes = true;
    }
  });
  return holes;
}

// Strips holes from every polygon (used by the overlaps-ignores-holes
// fault emulation).
geom::GeomPtr StripHoles(const Geometry& g) {
  geom::GeomPtr out = g.Clone();
  std::function<void(Geometry*)> rec = [&rec](Geometry* cur) {
    if (cur->type() == GeomType::kPolygon) {
      auto* poly = static_cast<geom::Polygon*>(cur);
      if (poly->NumRings() > 1) poly->mutable_rings().resize(1);
    } else if (cur->IsCollection()) {
      auto* coll = static_cast<geom::GeometryCollection*>(cur);
      for (auto& e : coll->mutable_elements()) rec(e.get());
    }
  };
  rec(out.get());
  return out;
}

}  // namespace

Result<bool> Intersects(const Geometry& a, const Geometry& b,
                        const faults::FaultState* faults) {
  SPATTER_COV("predicate", "intersects");
  // Each fault's bit first: Fire on a disabled id records nothing, so its
  // precondition's walk is only needed when the fault can fire.
  if (faults &&
      faults->IsEnabled(faults::FaultId::kGeosGcEmptyElementIntersects) &&
      (HasEmptyElement(a) || HasEmptyElement(b)) &&
      faults->Fire(faults::FaultId::kGeosGcEmptyElementIntersects)) {
    // Injected bug: collections with EMPTY elements fall back to an
    // envelope intersection test.
    return a.GetEnvelope().Intersects(b.GetEnvelope());
  }
  SPATTER_ASSIGN_OR_RETURN(bool disjoint, Disjoint(a, b, faults));
  return !disjoint;
}

Result<bool> Disjoint(const Geometry& a, const Geometry& b,
                      const faults::FaultState* faults) {
  SPATTER_COV("predicate", "disjoint");
  SPATTER_ASSIGN_OR_RETURN(IntersectionMatrix im, Relate(a, b, faults));
  return im.Matches("FF*FF****");
}

Result<bool> Within(const Geometry& a, const Geometry& b,
                    const faults::FaultState* faults) {
  SPATTER_COV("predicate", "within");
  SPATTER_ASSIGN_OR_RETURN(IntersectionMatrix im, Relate(a, b, faults));
  const bool correct = im.Matches("T*F**F***");
  if (correct && faults &&
      faults->IsEnabled(faults::FaultId::kGeosWithinGcPointInterior) &&
      HasPointElementInMixed(b) &&
      im.At(Location::kInterior, Location::kInterior) == 0 &&
      faults->Fire(faults::FaultId::kGeosWithinGcPointInterior)) {
    // Injected bug (companion of Listing 6): the interior contribution of a
    // 0-dimensional element inside a MIXED collection is not recognized.
    return false;
  }
  return correct;
}

Result<bool> Contains(const Geometry& a, const Geometry& b,
                      const faults::FaultState* faults) {
  SPATTER_COV("predicate", "contains");
  return Within(b, a, faults);
}

Result<bool> Covers(const Geometry& a, const Geometry& b,
                    const faults::FaultState* faults) {
  SPATTER_COV("predicate", "covers");
  SPATTER_ASSIGN_OR_RETURN(IntersectionMatrix im, Relate(a, b, faults));
  return im.Matches("T*****FF*") || im.Matches("*T****FF*") ||
         im.Matches("***T**FF*") || im.Matches("****T*FF*");
}

Result<bool> CoveredBy(const Geometry& a, const Geometry& b,
                       const faults::FaultState* faults) {
  SPATTER_COV("predicate", "covered_by");
  return Covers(b, a, faults);
}

Result<bool> Crosses(const Geometry& a, const Geometry& b,
                     const faults::FaultState* faults) {
  SPATTER_COV("predicate", "crosses");
  SPATTER_ASSIGN_OR_RETURN(IntersectionMatrix im, Relate(a, b, faults));
  const int da = EffectiveDimension(a, faults);
  const int db = EffectiveDimension(b, faults);
  bool result;
  if (da < db) {
    result = im.Matches("T*T******");
  } else if (da > db) {
    result = im.Matches("T*****T**");
  } else if (da == 1 && db == 1) {
    result = im.Matches("0********");
  } else {
    result = false;
  }
  if (!result && da == 1 && db == 1 && faults &&
      faults->IsEnabled(faults::FaultId::kGeosCrossesSharedEndpoint) &&
      SharesEndpoint(a, b) &&
      im.At(Location::kBoundary, Location::kBoundary) == 0 &&
      faults->Fire(faults::FaultId::kGeosCrossesSharedEndpoint)) {
    // Injected bug: a shared boundary endpoint is misread as an interior
    // crossing point.
    return true;
  }
  return result;
}

Result<bool> Overlaps(const Geometry& a, const Geometry& b,
                      const faults::FaultState* faults) {
  SPATTER_COV("predicate", "overlaps");
  if (faults && faults->IsEnabled(faults::FaultId::kGeosOverlapsIgnoresHoles) &&
      IsAreal(a) && IsAreal(b) &&
      (AnyPolygonHasHoles(a) || AnyPolygonHasHoles(b)) &&
      faults->Fire(faults::FaultId::kGeosOverlapsIgnoresHoles)) {
    // Injected bug: the polygon/polygon fast path evaluates shells only.
    const geom::GeomPtr sa = StripHoles(a);
    const geom::GeomPtr sb = StripHoles(b);
    return Overlaps(*sa, *sb);  // no faults: avoid recursive re-triggering
  }
  SPATTER_ASSIGN_OR_RETURN(IntersectionMatrix im, Relate(a, b, faults));
  const int da = EffectiveDimension(a, faults);
  const int db = EffectiveDimension(b, faults);
  if (da != db || da < 0) return false;
  if (da == 1) return im.Matches("1*T***T**");
  return im.Matches("T*T***T**");
}

Result<bool> Touches(const Geometry& a, const Geometry& b,
                     const faults::FaultState* faults) {
  SPATTER_COV("predicate", "touches");
  SPATTER_ASSIGN_OR_RETURN(IntersectionMatrix im, Relate(a, b, faults));
  const bool correct = im.Matches("FT*******") || im.Matches("F**T*****") ||
                       im.Matches("F***T****");
  if (!correct && faults &&
      faults->IsEnabled(faults::FaultId::kGeosTouchesClosedLineBoundary)) {
    geom::Coord ring_start;
    if ((HasClosedLineElement(a, &ring_start) ||
         HasClosedLineElement(b, &ring_start)) &&
        im.At(Location::kInterior, Location::kInterior) == 0 &&
        faults->Fire(faults::FaultId::kGeosTouchesClosedLineBoundary)) {
      // Injected bug: the start vertex of a closed line is treated as a
      // boundary point, turning an interior/interior point intersection
      // into an apparent boundary touch.
      return true;
    }
  }
  return correct;
}

Result<bool> TopoEquals(const Geometry& a, const Geometry& b,
                        const faults::FaultState* faults) {
  SPATTER_COV("predicate", "equals");
  SPATTER_ASSIGN_OR_RETURN(IntersectionMatrix im, Relate(a, b, faults));
  return im.Matches("T*F**FFF*");
}

}  // namespace spatter::relate
