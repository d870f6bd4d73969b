// Property-based tests of the topology core. These check the invariants
// the whole methodology rests on:
//  - Proposition 3.3: DE-9IM matrices are invariant under affine
//    transformation of both geometries,
//  - canonicalization preserves topological relationships (§4.3),
//  - predicate algebra (within/contains converses, intersects = !disjoint,
//    equals = within && contains, covers implied by contains),
//  - prepared predicates agree with plain predicates,
//  - the prepared point locator answers exactly as a walk over the
//    geometry tree, fault hits included,
//  - the relate memo is invisible: every call returns, fires and covers
//    exactly what the unmemoized kernel does, and the kernel's own
//    effects over fixed inputs are pinned,
//  - the kernel's operand cache is invisible too: a kernel run on cached
//    operands returns, fires and covers what one on fresh operands does,
//  - the relate front's closed forms (an EMPTY operand, separated
//    envelopes) follow the boundary and point-set definitions, and the
//    envelope pre-filter agrees with the kernel near its tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <tuple>

#include "algo/boundary.h"
#include "algo/canonicalize.h"
#include "common/coverage.h"
#include "common/rng.h"
#include "corpus/mutator.h"
#include "engine/dialect.h"
#include "fuzz/aei.h"
#include "fuzz/generator.h"
#include "geom/predicates.h"
#include "geom/wkt_reader.h"
#include "obs/metrics.h"
#include "relate/named_predicates.h"
#include "relate/point_locator.h"
#include "relate/prepared.h"
#include "relate/relate.h"

namespace spatter::relate {
namespace {

// Deterministic random geometries via the campaign generator (integer
// coordinates only: Proposition 3.3 holds exactly there, while fractional
// coordinates may legitimately flip near-degenerate configurations through
// rounding — the very effect the paper sidesteps by using integer
// matrices and that the precision faults exploit).
std::vector<geom::GeomPtr> RandomGeometries(uint64_t seed, size_t n) {
  spatter::Rng rng(seed);
  engine::Engine clean(engine::Dialect::kPostgis, /*enable_faults=*/false);
  fuzz::GeneratorConfig config;
  config.fractional_pct = 0;
  config.coord_range = 8;
  fuzz::GeometryAwareGenerator gen(config, &rng, &clean);
  std::vector<geom::GeomPtr> out;
  for (size_t i = 0; i < n; ++i) out.push_back(gen.RandomShape());
  return out;
}

class AffineInvariance : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AffineInvariance, RelateMatrixPreservedUnderIntegerAffine) {
  const uint64_t seed = GetParam();
  spatter::Rng rng(seed * 7919 + 3);
  auto geoms = RandomGeometries(seed, 8);
  const auto transform = fuzz::RandomIntegerAffine(&rng);

  for (size_t i = 0; i < geoms.size(); ++i) {
    for (size_t j = 0; j < geoms.size(); ++j) {
      const auto before = Relate(*geoms[i], *geoms[j]);
      ASSERT_TRUE(before.ok());
      const geom::GeomPtr ti = transform.Apply(*geoms[i]);
      const geom::GeomPtr tj = transform.Apply(*geoms[j]);
      const auto after = Relate(*ti, *tj);
      ASSERT_TRUE(after.ok());
      EXPECT_EQ(before.value().Code(), after.value().Code())
          << geoms[i]->ToWkt() << " vs " << geoms[j]->ToWkt() << " under "
          << transform.ToString();
    }
  }
}

TEST_P(AffineInvariance, CanonicalizationPreservesRelations) {
  const uint64_t seed = GetParam();
  auto geoms = RandomGeometries(seed + 1000, 8);
  for (size_t i = 0; i < geoms.size(); ++i) {
    for (size_t j = 0; j < geoms.size(); ++j) {
      const auto before = Relate(*geoms[i], *geoms[j]);
      ASSERT_TRUE(before.ok());
      const geom::GeomPtr ci = algo::Canonicalize(*geoms[i]);
      const geom::GeomPtr cj = algo::Canonicalize(*geoms[j]);
      const auto after = Relate(*ci, *cj);
      ASSERT_TRUE(after.ok());
      EXPECT_EQ(before.value().Code(), after.value().Code())
          << geoms[i]->ToWkt() << " canonicalized to " << ci->ToWkt();
    }
  }
}

TEST_P(AffineInvariance, PredicateAlgebra) {
  const uint64_t seed = GetParam();
  auto geoms = RandomGeometries(seed + 2000, 8);
  for (size_t i = 0; i < geoms.size(); ++i) {
    for (size_t j = 0; j < geoms.size(); ++j) {
      const auto& a = *geoms[i];
      const auto& b = *geoms[j];
      EXPECT_EQ(Within(a, b).value(), Contains(b, a).value());
      EXPECT_EQ(Covers(a, b).value(), CoveredBy(b, a).value());
      EXPECT_NE(Intersects(a, b).value(), Disjoint(a, b).value());
      EXPECT_EQ(Intersects(a, b).value(), Intersects(b, a).value());
      EXPECT_EQ(TopoEquals(a, b).value(),
                Within(a, b).value() && Contains(a, b).value());
      if (Contains(a, b).value()) {
        EXPECT_TRUE(Covers(a, b).value())
            << "contains must imply covers: " << a.ToWkt() << " / "
            << b.ToWkt();
      }
      if (Overlaps(a, b).value()) {
        EXPECT_TRUE(Intersects(a, b).value());
        EXPECT_FALSE(TopoEquals(a, b).value());
      }
      if (Touches(a, b).value()) {
        EXPECT_TRUE(Intersects(a, b).value());
      }
    }
  }
}

TEST_P(AffineInvariance, PreparedAgreesWithPlainOnRandomInputs) {
  const uint64_t seed = GetParam();
  auto geoms = RandomGeometries(seed + 3000, 6);
  for (size_t i = 0; i < geoms.size(); ++i) {
    PreparedGeometry prep(*geoms[i]);
    for (size_t j = 0; j < geoms.size(); ++j) {
      const auto& c = *geoms[j];
      EXPECT_EQ(prep.Intersects(c).value(),
                Intersects(*geoms[i], c).value());
      EXPECT_EQ(prep.Contains(c).value(), Contains(*geoms[i], c).value());
      EXPECT_EQ(prep.Covers(c).value(), Covers(*geoms[i], c).value());
    }
  }
}

TEST_P(AffineInvariance, SelfRelateIsEqualsShaped) {
  auto geoms = RandomGeometries(GetParam() + 4000, 10);
  for (const auto& g : geoms) {
    if (g->IsEmpty()) continue;
    const auto im = Relate(*g, *g).Take();
    EXPECT_TRUE(im.Matches("T*F**FFF*")) << g->ToWkt() << " -> " << im.Code();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AffineInvariance,
                         ::testing::Range<uint64_t>(1, 13));

// Specific transforms from Figure 4 applied to a fixed scenario set.
TEST(AffineInvariance, NamedTransformsOnFixedScenarios) {
  const char* wkts[] = {
      "POINT(2 3)",
      "LINESTRING(0 1,2 0)",
      "POLYGON((0 0,4 0,4 4,0 4,0 0))",
      "MULTIPOINT((0 0),(3 1))",
      "GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0))",
  };
  const algo::AffineTransform transforms[] = {
      algo::AffineTransform::Translation(7, -3),
      algo::AffineTransform::Scaling(3, 3),
      algo::AffineTransform::Scaling(1, 5),
      algo::AffineTransform::ShearX(2),
      algo::AffineTransform::SwapXY(),
      algo::AffineTransform(0, -1, 1, 0, 0, 0),  // 90-degree rotation
  };
  for (const auto& t : transforms) {
    for (const char* wa : wkts) {
      for (const char* wb : wkts) {
        const auto a = geom::ReadWkt(wa).Take();
        const auto b = geom::ReadWkt(wb).Take();
        const auto before = Relate(*a, *b).Take();
        const auto after =
            Relate(*t.Apply(*a), *t.Apply(*b)).Take();
        EXPECT_EQ(before.Code(), after.Code())
            << wa << " vs " << wb << " under " << t.ToString();
      }
    }
  }
}

// --- Reference point locator ----------------------------------------------
// The tree-walking locator the prepared one replaced: every call walks the
// geometry with ForEachBasic and tests every segment of every element.
// PreparedOperand, and the LocatePoint / LocateAreal wrappers over it,
// must return the same Location and fire the same faults for every call.
namespace reference {

using geom::Coord;
using geom::Geometry;
using geom::GeomType;

bool CoordsEqual(const Coord& a, const Coord& b, double eps) {
  return std::fabs(a.x - b.x) <= eps && std::fabs(a.y - b.y) <= eps;
}

algo::RingLocation LocateInRing(const Coord& p, const std::vector<Coord>& ring,
                                double eps) {
  if (ring.size() < 2) return algo::RingLocation::kExterior;
  bool inside = false;
  for (size_t i = 0; i + 1 < ring.size(); ++i) {
    const Coord& a = ring[i];
    const Coord& b = ring[i + 1];
    if (geom::OnSegment(p, a, b, eps)) return algo::RingLocation::kBoundary;
    if ((a.y > p.y) != (b.y > p.y)) {
      const double x_cross = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
      if (x_cross > p.x) inside = !inside;
    }
  }
  if (ring.front() != ring.back()) {
    const Coord& a = ring.back();
    const Coord& b = ring.front();
    if (geom::OnSegment(p, a, b, eps)) return algo::RingLocation::kBoundary;
    if ((a.y > p.y) != (b.y > p.y)) {
      const double x_cross = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
      if (x_cross > p.x) inside = !inside;
    }
  }
  return inside ? algo::RingLocation::kInterior
                : algo::RingLocation::kExterior;
}

algo::RingLocation LocateInPolygon(const Coord& p, const geom::Polygon& poly,
                                   double eps) {
  if (poly.IsEmpty()) return algo::RingLocation::kExterior;
  int parity = 0;
  for (const auto& ring : poly.rings()) {
    const algo::RingLocation loc = LocateInRing(p, ring, eps);
    if (loc == algo::RingLocation::kBoundary) {
      return algo::RingLocation::kBoundary;
    }
    if (loc == algo::RingLocation::kInterior) parity ^= 1;
  }
  return parity ? algo::RingLocation::kInterior
                : algo::RingLocation::kExterior;
}

struct Scan {
  bool areal_interior = false;
  bool areal_boundary = false;
  bool point_interior = false;
  int endpoint_count = 0;
  bool on_line = false;
  bool has_empty_line_element = false;
};

void ScanBasic(const Coord& p, const Geometry& basic, double eps, Scan* scan) {
  switch (basic.type()) {
    case GeomType::kPoint:
      if (!basic.IsEmpty() &&
          CoordsEqual(*geom::AsPoint(basic).coord(), p, eps)) {
        scan->point_interior = true;
      }
      break;
    case GeomType::kLineString: {
      const auto& line = geom::AsLineString(basic);
      if (line.IsEmpty()) {
        scan->has_empty_line_element = true;
        break;
      }
      if (!line.IsClosed() && line.NumPoints() >= 2) {
        if (CoordsEqual(line.points().front(), p, eps)) scan->endpoint_count++;
        if (CoordsEqual(line.points().back(), p, eps)) scan->endpoint_count++;
      }
      for (size_t i = 0; i + 1 < line.NumPoints(); ++i) {
        if (geom::OnSegment(p, line.PointAt(i), line.PointAt(i + 1), eps)) {
          scan->on_line = true;
          break;
        }
      }
      break;
    }
    case GeomType::kPolygon: {
      const auto loc = LocateInPolygon(p, geom::AsPolygon(basic), eps);
      if (loc == algo::RingLocation::kInterior) scan->areal_interior = true;
      if (loc == algo::RingLocation::kBoundary) scan->areal_boundary = true;
      break;
    }
    default:
      break;
  }
}

Location Resolve(const Scan& scan, const faults::FaultState* faults) {
  if (scan.areal_interior) return Location::kInterior;
  if (scan.areal_boundary) return Location::kBoundary;
  if (scan.point_interior) return Location::kInterior;
  bool parity_applies = true;
  if (scan.has_empty_line_element && faults &&
      faults->Fire(faults::FaultId::kGeosBoundaryEmptyElementDrop)) {
    parity_applies = false;
  }
  if (parity_applies && scan.endpoint_count % 2 == 1) {
    return Location::kBoundary;
  }
  if (scan.on_line || scan.endpoint_count > 0) return Location::kInterior;
  return Location::kExterior;
}

Location LocatePoint(const Coord& p, const Geometry& g, double eps,
                     const faults::FaultState* faults) {
  if (g.type() == GeomType::kGeometryCollection && faults &&
      faults->IsEnabled(faults::FaultId::kGeosGcBoundaryLastOneWins)) {
    const auto& coll = geom::AsCollection(g);
    Location result = Location::kExterior;
    for (size_t i = 0; i < coll.NumElements(); ++i) {
      const Location loc = LocatePoint(p, coll.ElementAt(i), eps, nullptr);
      if (loc != Location::kExterior) {
        faults->Fire(faults::FaultId::kGeosGcBoundaryLastOneWins);
        result = loc;
      }
    }
    return result;
  }
  Scan scan;
  geom::ForEachBasic(g, [&](const Geometry& basic) {
    ScanBasic(p, basic, eps, &scan);
  });
  return Resolve(scan, faults);
}

Location LocateAreal(const Coord& p, const Geometry& g, double eps) {
  bool boundary = false;
  bool interior = false;
  geom::ForEachBasic(g, [&](const Geometry& basic) {
    if (basic.type() != GeomType::kPolygon || basic.IsEmpty()) return;
    const auto loc = LocateInPolygon(p, geom::AsPolygon(basic), eps);
    if (loc == algo::RingLocation::kInterior) interior = true;
    if (loc == algo::RingLocation::kBoundary) boundary = true;
  });
  if (interior) return Location::kInterior;
  if (boundary) return Location::kBoundary;
  return Location::kExterior;
}

}  // namespace reference

// Probes at each side of each polygon ring's box, the union of its
// segments' boxes widened by OnSegment's tolerance: on the side, one ulp
// off it either way and 1% of the ring's largest tolerance off it either
// way, at every vertex's other coordinate. The locator skips a ring for a
// point outside a box of at least this size.
void AddRingBoxProbes(const std::vector<geom::Coord>& ring, double eps,
                      std::vector<geom::Coord>* out) {
  if (ring.size() < 2) return;
  double x_lo = INFINITY, x_hi = -INFINITY, y_lo = INFINITY, y_hi = -INFINITY;
  double tol_max = 0.0;
  for (size_t i = 0; i < ring.size(); ++i) {
    const geom::Coord& a = ring[i];
    const geom::Coord& b = ring[(i + 1) % ring.size()];
    const double tol = geom::OnSegmentTolerance(a, b, eps);
    tol_max = std::max(tol_max, tol);
    x_lo = std::min(x_lo, std::min(a.x, b.x) - tol);
    x_hi = std::max(x_hi, std::max(a.x, b.x) + tol);
    y_lo = std::min(y_lo, std::min(a.y, b.y) - tol);
    y_hi = std::max(y_hi, std::max(a.y, b.y) + tol);
  }
  const auto near = [&](double side) {
    return std::vector<double>{
        side, std::nextafter(side, -INFINITY), std::nextafter(side, INFINITY),
        side - 0.01 * tol_max, side + 0.01 * tol_max};
  };
  for (const geom::Coord& v : ring) {
    for (const double side : {x_lo, x_hi}) {
      for (const double x : near(side)) out->push_back({x, v.y});
    }
    for (const double side : {y_lo, y_hi}) {
      for (const double y : near(side)) out->push_back({v.x, y});
    }
  }
}

// Probe points for `g`: every vertex, every segment midpoint (closing
// ring edges included), each vertex nudged up and down by multiples of
// the tolerance OnSegment uses there (the edges of the prepared y-ranges),
// points at each ring's box (AddRingBoxProbes), and seeded random points
// over the coordinate range and over g's envelope.
std::vector<geom::Coord> ProbePoints(const geom::Geometry& g, double eps,
                                     spatter::Rng* rng) {
  std::vector<geom::Coord> out;
  const auto add_chain = [&](const std::vector<geom::Coord>& pts,
                             bool close) {
    for (size_t i = 0; i < pts.size(); ++i) {
      const geom::Coord& v = pts[i];
      out.push_back(v);
      const double tol = geom::OnSegmentTolerance(v, v, eps);
      for (const double k : {-1.5, -1.0, -0.5, 0.5, 1.0, 1.5}) {
        out.push_back({v.x, v.y + k * tol});
        out.push_back({v.x + k * tol, v.y});
      }
      if (i + 1 < pts.size()) {
        out.push_back(geom::Midpoint(v, pts[i + 1]));
      }
    }
    if (close && pts.size() >= 2) {
      out.push_back(geom::Midpoint(pts.back(), pts.front()));
    }
  };
  geom::ForEachBasic(g, [&](const geom::Geometry& basic) {
    if (basic.type() == geom::GeomType::kPoint && !basic.IsEmpty()) {
      add_chain({*geom::AsPoint(basic).coord()}, false);
    } else if (basic.type() == geom::GeomType::kLineString) {
      add_chain(geom::AsLineString(basic).points(), false);
    } else if (basic.type() == geom::GeomType::kPolygon) {
      for (const auto& ring : geom::AsPolygon(basic).rings()) {
        add_chain(ring, true);
        AddRingBoxProbes(ring, eps, &out);
      }
    }
  });
  for (int i = 0; i < 24; ++i) {
    out.push_back({rng->IntIn(-120, 120) / 10.0, rng->IntIn(-120, 120) / 10.0});
  }
  const geom::Envelope env = g.GetEnvelope();
  if (!env.IsNull()) {
    const double w = env.max_x() - env.min_x();
    const double h = env.max_y() - env.min_y();
    for (int i = 0; i < 24; ++i) {
      out.push_back({env.min_x() + w * rng->IntIn(-25, 125) / 100.0,
                     env.min_y() + h * rng->IntIn(-25, 125) / 100.0});
    }
  }
  return out;
}

// The generator's shapes with fractional coordinates, plus fixed inputs
// covering EMPTY elements, mixed and nested collections, unclosed and
// degenerate rings, and closed lines.
std::vector<geom::GeomPtr> LocatorInputs(uint64_t seed) {
  spatter::Rng rng(seed);
  engine::Engine clean(engine::Dialect::kPostgis, /*enable_faults=*/false);
  fuzz::GeneratorConfig config;
  config.fractional_pct = 50;
  config.coord_range = 8;
  config.empty_pct = 20;
  config.nested_pct = 30;
  fuzz::GeometryAwareGenerator gen(config, &rng, &clean);
  std::vector<geom::GeomPtr> out;
  for (int i = 0; i < 40; ++i) out.push_back(gen.RandomShape());
  for (const char* wkt : {
           "GEOMETRYCOLLECTION(POINT EMPTY,LINESTRING EMPTY,"
           "POLYGON((0 0,4 0,4 4,0 4,0 0)),LINESTRING(1 1,6 1))",
           "GEOMETRYCOLLECTION(LINESTRING(0 0,2 0),LINESTRING EMPTY,"
           "POINT(2 0),GEOMETRYCOLLECTION(LINESTRING(2 0,2 2),POINT EMPTY))",
           "GEOMETRYCOLLECTION(POLYGON((0 0,3 0,3 3,0 3,0 0)),"
           "POLYGON((1 1,5 1,5 5,1 5,1 1)),LINESTRING(0 0,5 5),POINT(3 3))",
           "GEOMETRYCOLLECTION(GEOMETRYCOLLECTION EMPTY,POINT(1 1))",
           "MULTILINESTRING((0 0,1 1),EMPTY,(1 1,2 0),(3 3,3 3))",
           "MULTIPOLYGON(((0 0,4 0,4 4,0 4,0 0),(1 1,2 1,2 2,1 2,1 1)),"
           "EMPTY,((5 5,6 5,6 6,5 5)))",
           "POLYGON((0 0,4 0,2 3))",
           "POLYGON((0 0,0 0,0 0,0 0))",
           "LINESTRING(0 0,0 3,3 3,0 0)",
           "LINESTRING(1.5 1.5,1.5 1.5)",
           "MULTIPOINT((0 0),EMPTY,(0.5 0.5))",
       }) {
    out.push_back(geom::ReadWkt(wkt).Take());
  }
  return out;
}

// LocatorInputs, and each of them scaled and translated to coordinates
// of magnitude 1e3 and 1e6, where OnSegment's tolerance is 1e3 and 1e6
// times kDerivedEps; then polygons with a NaN, an infinite and a
// near-overflow vertex, whose rings the locator must never skip by box.
std::vector<geom::GeomPtr> LocatorInputsAtMagnitudes(uint64_t seed) {
  std::vector<geom::GeomPtr> out = LocatorInputs(seed);
  const size_t base = out.size();
  for (const algo::AffineTransform& t :
       {algo::AffineTransform(125, 0, 0, 125, 1000, -1000),
        algo::AffineTransform(1.25e5, 0, 0, -1.25e5, -1e6, 1e6)}) {
    for (size_t i = 0; i < base; ++i) out.push_back(t.Apply(*out[i]));
  }
  const double nan = std::nan("");
  const double inf = INFINITY;
  out.push_back(geom::MakePolygon({{{0, 0}, {4, 0}, {4, 4}, {nan, nan}, {0, 0}},
                                   {{1, 1}, {2, 1}, {2, 2}, {1, 1}}}));
  out.push_back(geom::MakePolygon({{{0, 0}, {4, 0}, {inf, 2}, {0, 4}, {0, 0}}}));
  out.push_back(geom::MakePolygon(
      {{{-1e308, 0}, {1e308, 0}, {0, 1e308}, {-1e308, 0}},
       {{-1, 1}, {1, 1}, {0, 2}, {-1, 1}}}));
  return out;
}

class PreparedLocatorExactness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PreparedLocatorExactness, SameLocationAndFaultHitsAsTreeWalk) {
  spatter::Rng rng(GetParam() * 104729 + 11);
  faults::FaultState on_ref;
  faults::FaultState on_new;
  for (auto* f : {&on_ref, &on_new}) {
    f->Enable(faults::FaultId::kGeosGcBoundaryLastOneWins);
    f->Enable(faults::FaultId::kGeosBoundaryEmptyElementDrop);
  }
  // One operand re-prepared per geometry, as Relate reuses its scratch.
  PreparedOperand reused;
  size_t calls = 0;
  std::map<faults::FaultId, size_t> fired;
  for (const auto& g : LocatorInputsAtMagnitudes(GetParam())) {
    for (const double eps : {geom::kDerivedEps, 0.0}) {
      reused.Prepare(*g, eps);
      for (const geom::Coord& p : ProbePoints(*g, eps, &rng)) {
        // Built only when an assertion fails.
        const auto at = [&] {
          return g->ToWkt() + " at (" + std::to_string(p.x) + " " +
                 std::to_string(p.y) + ") eps=" + std::to_string(eps);
        };
        const Location want = reference::LocatePoint(p, *g, eps, nullptr);
        const Location want_a = reference::LocateAreal(p, *g, eps);
        ASSERT_EQ(LocatePoint(p, *g, eps, nullptr), want) << at();
        Tally tally;
        ASSERT_EQ(reused.Locate(p, nullptr, &tally), want) << at();
        ASSERT_EQ(tally.fired, 0u) << at();
        Location areal = Location::kBoundary;
        ASSERT_EQ(reused.Locate(p, nullptr, &tally, &areal), want) << at();
        ASSERT_EQ(areal, want_a) << "areal output: " << at();

        // A direct Locate fires nothing until its tally is applied.
        on_ref.ClearHits();
        on_new.ClearHits();
        const Location want_f = reference::LocatePoint(p, *g, eps, &on_ref);
        tally = Tally();
        ASSERT_EQ(reused.Locate(p, &on_new, &tally), want_f)
            << "faults on: " << at();
        ASSERT_TRUE(on_new.Hits().empty()) << "faults on: " << at();
        tally.Apply(&on_new);
        ASSERT_EQ(on_new.Hits(), on_ref.Hits()) << "faults on: " << at();
        on_new.ClearHits();
        tally = Tally();
        areal = Location::kBoundary;
        ASSERT_EQ(reused.Locate(p, &on_new, &tally, &areal), want_f)
            << "faults on: " << at();
        ASSERT_EQ(areal, want_a) << "areal output, faults on: " << at();
        tally.Apply(&on_new);
        ASSERT_EQ(on_new.Hits(), on_ref.Hits()) << "faults on: " << at();
        on_new.ClearHits();
        ASSERT_EQ(LocatePoint(p, *g, eps, &on_new), want_f) << at();
        ASSERT_EQ(on_new.Hits(), on_ref.Hits()) << at();
        for (const faults::FaultId id : on_ref.Hits()) ++fired[id];

        ASSERT_EQ(LocateAreal(p, *g, eps), want_a) << "areal: " << at();
        ASSERT_EQ(reused.LocateAreal(p), want_a) << "areal: " << at();
        ++calls;
      }
    }
  }
  EXPECT_GT(calls, 5000u);
  EXPECT_GT(fired[faults::FaultId::kGeosGcBoundaryLastOneWins], 0u);
  EXPECT_GT(fired[faults::FaultId::kGeosBoundaryEmptyElementDrop], 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreparedLocatorExactness,
                         ::testing::Range<uint64_t>(1, 9));

// --- The relate memo ---------------------------------------------------------

using geom::Geometry;
using RelateFn = Result<IntersectionMatrix> (*)(const Geometry&,
                                                const Geometry&,
                                                const faults::FaultState*);

// What one relate call returned and left behind.
struct RelateRun {
  std::string result;  // the matrix code, or the failed status
  std::set<faults::FaultId> fired;
  std::vector<std::pair<uint32_t, uint64_t>> coverage;  // site, hit delta
  uint64_t full = 0;  // kernel runs (relate.full delta)
  uint64_t hits = 0;  // memo replays (relate.memo.hit delta)

  bool operator==(const RelateRun& o) const {
    return result == o.result && fired == o.fired && coverage == o.coverage;
  }
};

std::ostream& operator<<(std::ostream& os, const RelateRun& r) {
  os << r.result << " fired {";
  for (const faults::FaultId id : r.fired) {
    os << " " << faults::GetFaultInfo(id).name;
  }
  os << " } coverage {";
  for (const auto& [site, n] : r.coverage) os << " " << site << "x" << n;
  return os << " } full=" << r.full << " hits=" << r.hits;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Instance().GetCounter(name)->Value();
}

// Calls `fn` with `faults` (hits cleared first) and records the outcome.
RelateRun RunRelate(RelateFn fn, const Geometry& a, const Geometry& b,
                    const faults::FaultState* faults) {
  if (faults) faults->ClearHits();
  auto& registry = CoverageRegistry::Instance();
  const uint64_t full = CounterValue("relate.full");
  const uint64_t hits = CounterValue("relate.memo.hit");
  const std::vector<uint64_t> before = registry.SnapshotHits();
  const auto r = fn(a, b, faults);
  const std::vector<uint64_t> after = registry.SnapshotHits();
  RelateRun run;
  run.result = r.ok() ? r.value().Code() : r.status().ToString();
  if (faults) run.fired = faults->Hits();
  for (uint32_t site = 0; site < after.size(); ++site) {
    const uint64_t was = site < before.size() ? before[site] : 0;
    if (after[site] != was) run.coverage.emplace_back(site, after[site] - was);
  }
  run.full = CounterValue("relate.full") - full;
  run.hits = CounterValue("relate.memo.hit") - hits;
  return run;
}

RelateRun RunWith(RelateFn fn, const Geometry& a, const Geometry& b,
                  const std::vector<faults::FaultId>& enabled) {
  faults::FaultState state;
  state.EnableAll(enabled);
  return RunRelate(fn, a, b, &state);
}

class RelateMemoExactness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RelateMemoExactness, EverySightingEqualsTheKernel) {
  // Each pair is related three times, each time on a fresh FaultState with
  // the same enabled set. Each call equals the unmemoized kernel in matrix
  // or status, fired ids and per-site coverage counts. The first call runs
  // the kernel and logs its record; the second and third are hits, with no
  // kernel run. A pair an earlier call already related (an input repeated,
  // or the fixed inputs under another seed) may still be in the log, so
  // its first call may be a hit too.
  using faults::FaultId;
  const std::vector<std::vector<FaultId>> settings = {
      {},
      {FaultId::kGeosGcBoundaryLastOneWins,
       FaultId::kGeosBoundaryEmptyElementDrop},
      {FaultId::kGeosCrashRelateNestedGc}};
  // The locator inputs, plus a collection nested three deep for the crash.
  auto inputs = LocatorInputs(GetParam());
  inputs.push_back(geom::ReadWkt("GEOMETRYCOLLECTION(GEOMETRYCOLLECTION("
                                 "MULTIPOINT((1 1),(2 2))),POINT(0 0))")
                       .Take());
  size_t full_pairs = 0, first_runs = 0, replayed_faults = 0;
  std::map<FaultId, size_t> fired;
  for (const auto& enabled : settings) {
    for (const auto& a : inputs) {
      for (const auto& b : inputs) {
        const auto at = [&] { return a->ToWkt() + " / " + b->ToWkt(); };
        const RelateRun want = RunWith(RelateUnmemoized, *a, *b, enabled);
        RelateRun got[3];
        for (int call = 0; call < 3; ++call) {
          got[call] = RunWith(Relate, *a, *b, enabled);
          ASSERT_EQ(got[call], want) << "call " << call << ": " << at();
        }
        if (want.full == 1) {
          ++full_pairs;
          ASSERT_EQ(got[0].full + got[0].hits, 1u) << "call 0: " << at();
          first_runs += got[0].full;
          for (int call = 1; call < 3; ++call) {
            ASSERT_EQ(got[call].full, 0u) << "call " << call << ": " << at();
            ASSERT_EQ(got[call].hits, 1u) << "call " << call << ": " << at();
          }
          if (!got[2].fired.empty()) ++replayed_faults;
        }
        for (const FaultId id : want.fired) ++fired[id];
      }
    }
  }
  EXPECT_GT(full_pairs, 2000u);
  EXPECT_GT(first_runs, 2000u);
  EXPECT_GT(replayed_faults, 0u);
  EXPECT_GT(fired[FaultId::kGeosGcBoundaryLastOneWins], 0u);
  EXPECT_GT(fired[FaultId::kGeosBoundaryEmptyElementDrop], 0u);
  EXPECT_GT(fired[FaultId::kGeosCrashRelateNestedGc], 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelateMemoExactness,
                         ::testing::Range<uint64_t>(1, 3));

geom::GeomPtr Wkt(const char* wkt) { return geom::ReadWkt(wkt).Take(); }

// Relates (a, b) three times, so the memo holds the pair.
void Warm(const Geometry& a, const Geometry& b,
          const faults::FaultState* faults) {
  for (int i = 0; i < 3; ++i) RunRelate(Relate, a, b, faults);
}

// (a, b) on `faults` must miss the memo, run the kernel once, and equal
// the unmemoized kernel on a state with the same enabled set.
void ExpectMiss(const Geometry& a, const Geometry& b,
                const faults::FaultState* faults) {
  faults::FaultState ref;
  if (faults) ref = *faults;  // the enabled set; RunRelate clears the hits
  const RelateRun want =
      RunRelate(RelateUnmemoized, a, b, faults ? &ref : nullptr);
  const RelateRun got = RunRelate(Relate, a, b, faults);
  EXPECT_EQ(got.full, 1u) << a.ToWkt() << " / " << b.ToWkt();
  EXPECT_EQ(got.hits, 0u) << a.ToWkt() << " / " << b.ToWkt();
  EXPECT_EQ(got, want) << a.ToWkt() << " / " << b.ToWkt();
}

// Relates a pair no call has related before: a line of `points` vertices,
// all but the last repeated (cheap to relate), against a bar. The kernel
// run's record takes 2 * points + 16 words of the log (relate.h): a header
// word, 7 words of outcome and the key, which is 2 fault words, the line's
// head, 2 words a point and the bar's 5 words.
void RelateOneOffKey(size_t points) {
  static int next = 0;
  const double x = 100.0 + next++;
  std::vector<geom::Coord> pts(points - 1, geom::Coord{x, 0});
  pts.push_back({x, 10});
  const auto line = geom::MakeLineString(std::move(pts));
  const auto bar = geom::MakeLineString({{x - 1, 5}, {x + 1, 5}});
  ASSERT_EQ(RunRelate(Relate, *line, *bar, nullptr).full, 1u) << x;
}

// Relates `n` one-off keys of 2,018 words each.
void RelateOneOffKeys(int n) {
  for (int i = 0; i < n && !::testing::Test::HasFatalFailure(); ++i) {
    RelateOneOffKey(1001);
  }
}

// Relates 80K words of one-off keys, more than the memo's 64K-word log
// (relate.h), so no pair an earlier call related is still logged.
void FlushMemo() { RelateOneOffKeys(40); }

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

TEST(RelateMemo, KeysTellApartWhatTheKernelCouldTellApart) {
  using faults::FaultId;
  FlushMemo();
  const auto square = Wkt("POLYGON((0 0,4 0,4 4,0 4,0 0))");

  // 0.0 against -0.0.
  const auto line = geom::MakeLineString({{0.0, 1}, {3, 3}});
  const auto signed_line = geom::MakeLineString({{-0.0, 1}, {3, 3}});
  ASSERT_NE(Bits(0.0), Bits(-0.0));
  Warm(*square, *line, nullptr);
  ExpectMiss(*square, *signed_line, nullptr);

  // Two NaN payloads.
  const double nan1 = std::nan("1");
  const double nan2 = std::nan("2");
  ASSERT_NE(Bits(nan1), Bits(nan2));
  const auto nan_line1 = geom::MakeLineString({{1, 1}, {nan1, 2}, {3, 3}});
  const auto nan_line2 = geom::MakeLineString({{1, 1}, {nan2, 2}, {3, 3}});
  Warm(*square, *nan_line1, nullptr);
  ExpectMiss(*square, *nan_line2, nullptr);

  // MULTIPOINT against a GEOMETRYCOLLECTION of the same points, faults off
  // and with the collection-only locator fault on.
  const auto multi = Wkt("MULTIPOINT((1 1),(4 2))");
  const auto coll = Wkt("GEOMETRYCOLLECTION(POINT(1 1),POINT(4 2))");
  faults::FaultState last_one_wins;
  last_one_wins.Enable(FaultId::kGeosGcBoundaryLastOneWins);
  for (const faults::FaultState* f : {static_cast<faults::FaultState*>(nullptr),
                                      &last_one_wins}) {
    Warm(*multi, *square, f);
    ExpectMiss(*coll, *square, f);
  }

  // A changed enabled set on the same FaultState, and back.
  const auto gc = Wkt(
      "GEOMETRYCOLLECTION(POLYGON((0 0,3 0,3 3,0 3,0 0)),"
      "LINESTRING(0 0,5 5),LINESTRING EMPTY)");
  faults::FaultState toggled;
  toggled.Enable(FaultId::kGeosGcBoundaryLastOneWins);
  Warm(*gc, *square, &toggled);
  toggled.Enable(FaultId::kGeosBoundaryEmptyElementDrop);
  ExpectMiss(*gc, *square, &toggled);
  toggled.Disable(FaultId::kGeosBoundaryEmptyElementDrop);
  EXPECT_EQ(RunRelate(Relate, *gc, *square, &toggled).hits, 1u);

  // faults == nullptr against an empty enabled set, both ways round.
  const auto cross = Wkt("LINESTRING(-1 2,5 2)");
  const faults::FaultState none;
  Warm(*square, *cross, nullptr);
  ExpectMiss(*square, *cross, &none);
  Warm(*cross, *square, &none);
  ExpectMiss(*cross, *square, nullptr);
}

TEST(RelateMemo, EarlierHitsAreKeptButNotRecorded) {
  // The caller's hits from before the call survive it, and the memo does
  // not record them: a later replay fires only what the kernel fired.
  using faults::FaultId;
  const auto gc = Wkt(
      "GEOMETRYCOLLECTION(POLYGON((0 0,3 0,3 3,0 3,0 0)),POINT(5 5))");
  const auto line = Wkt("LINESTRING(1 1,6 6)");
  const std::vector<FaultId> enabled = {FaultId::kGeosGcBoundaryLastOneWins,
                                        FaultId::kGeosPreparedStaleCache};
  FlushMemo();
  const RelateRun want = RunWith(RelateUnmemoized, *gc, *line, enabled);
  ASSERT_EQ(want.fired,
            std::set<FaultId>{FaultId::kGeosGcBoundaryLastOneWins});
  for (int call = 0; call < 2; ++call) {
    faults::FaultState state;
    state.EnableAll(enabled);
    state.Fire(FaultId::kGeosPreparedStaleCache);
    ASSERT_TRUE(Relate(*gc, *line, &state).ok());
    EXPECT_EQ(state.Hits(), (std::set<FaultId>{
                                FaultId::kGeosGcBoundaryLastOneWins,
                                FaultId::kGeosPreparedStaleCache}));
  }
  const RelateRun got = RunWith(Relate, *gc, *line, enabled);
  EXPECT_EQ(got.hits, 1u);
  EXPECT_EQ(got, want);
}

TEST(RelateMemo, FlushedPairRecomputesAndStillEqualsTheKernel) {
  const auto a = Wkt("POLYGON((0 0,4 0,4 4,0 4,0 0))");
  const auto b = Wkt("POLYGON((2 2,6 2,6 6,2 6,2 2))");
  Warm(*a, *b, nullptr);
  ASSERT_EQ(RunRelate(Relate, *a, *b, nullptr).hits, 1u);
  FlushMemo();
  if (HasFatalFailure()) return;

  const RelateRun got = RunRelate(Relate, *a, *b, nullptr);
  EXPECT_EQ(got.full, 1u);
  EXPECT_EQ(got.hits, 0u);
  EXPECT_EQ(got, RunRelate(RelateUnmemoized, *a, *b, nullptr));
}

TEST(RelateMemo, OverwrittenRecordRunsTheKernel) {
  // A pair's record is overwritten once more than the log's 64K words
  // (relate.h) of other records are appended after it: the pair related
  // again runs the kernel once, and is a hit after that.
  const auto a = Wkt("POLYGON((30.5 30,34 30,34 34,30.5 34,30.5 30))");
  const auto b = Wkt("LINESTRING(29.5 32,35 33.25)");
  const RelateRun want = RunRelate(RelateUnmemoized, *a, *b, nullptr);
  ASSERT_EQ(want.full, 1u);
  const RelateRun first = RunRelate(Relate, *a, *b, nullptr);
  ASSERT_EQ(first.full, 1u);
  ASSERT_EQ(first, want);

  RelateOneOffKeys(40);  // 80K words
  if (HasFatalFailure()) return;

  const RelateRun second = RunRelate(Relate, *a, *b, nullptr);
  EXPECT_EQ(second.full, 1u);
  EXPECT_EQ(second.hits, 0u);
  EXPECT_EQ(second, want);
  const RelateRun third = RunRelate(Relate, *a, *b, nullptr);
  EXPECT_EQ(third.full, 0u);
  EXPECT_EQ(third.hits, 1u);
  EXPECT_EQ(third, want);
}

TEST(RelateMemo, PromotedRecordOutlivesOneOffKeys) {
  // A pair hit once per 40K words of one-off keys: each hit finds its
  // record older than half the log and moves it to the head, so the pair
  // stays a hit over three laps of the log, although every hit but the
  // first comes more than 64K words after the pair's first kernel run.
  const auto a = Wkt("POLYGON((50 50,54 50,54 54,50 54,50 50))");
  const auto b = Wkt("LINESTRING(49 51.5,55 52.5)");
  const RelateRun want = RunRelate(RelateUnmemoized, *a, *b, nullptr);
  ASSERT_EQ(want.full, 1u);
  ASSERT_EQ(RunRelate(Relate, *a, *b, nullptr).full, 1u);
  for (int lap = 0; lap < 5; ++lap) {  // 200K words: three laps
    RelateOneOffKeys(20);              // 40K words
    if (HasFatalFailure()) return;
    const RelateRun got = RunRelate(Relate, *a, *b, nullptr);
    EXPECT_EQ(got.full, 0u) << lap;
    EXPECT_EQ(got.hits, 1u) << lap;
    EXPECT_EQ(got, want) << lap;
  }
}

TEST(RelateMemo, RecordOlderThanTheLogRunsTheKernel) {
  // A filler record takes all of the 64K-word log but 64 words, so one
  // that starts at the log's start leaves the writer 64 words before its
  // end. The second of two fillers in a row always starts there: the first
  // leaves the writer at most 64 words before the end, where the second
  // does not fit. A pair logged in those 64 words is skipped by the next
  // two fillers, so its record is intact two laps later, but older than
  // the log: the pair runs the kernel.
  const auto filler = [] { RelateOneOffKey((64 * 1024 - 64 - 16) / 2); };
  filler();
  filler();
  const auto a = Wkt("POLYGON((60 60,64 60,64 64,60 64,60 60))");
  const auto b = Wkt("LINESTRING(59 61.5,65 62.5)");
  const RelateRun want = RunRelate(RelateUnmemoized, *a, *b, nullptr);
  ASSERT_EQ(RunRelate(Relate, *a, *b, nullptr).full, 1u);  // 27 words
  filler();
  filler();
  if (HasFatalFailure()) return;

  const RelateRun got = RunRelate(Relate, *a, *b, nullptr);
  EXPECT_EQ(got.full, 1u);
  EXPECT_EQ(got.hits, 0u);
  EXPECT_EQ(got, want);
}

// --- The operand cache -------------------------------------------------------

TEST(OperandReuseExactness, CachedOperandsEqualFreshOnes) {
  // A pool of generator shapes and degenerate operands, related twice,
  // then two integer-affine images of it. In each pass every ordered pair
  // is related under faults off and under each dialect's enabled set, the
  // pairs and settings shuffled together: a pool's operands under five
  // settings are 275 keys, more than the cache's 64 slots (relate.h), so
  // operands are evicted and prepared again between their uses, and each
  // shows up as A and as B, under one setting and then another. The pairs
  // of an image are new to the memo, and the memo's log holds few of a
  // pass's 15,125 pairs, so most calls run the kernel on cached operands;
  // each call must equal RelateUnmemoized, which prepares its operands
  // afresh, in matrix or status, fired ids and per-site coverage counts.
  std::vector<geom::GeomPtr> pool = LocatorInputs(3);
  for (const char* wkt : {
           "POLYGON((0 0,4 0,4 4,0 4,0 0),(2 2,6 2,6 6,2 6,2 2))",
           "POLYGON((0 0,6 0,6 6,0 6,0 0),(1 1,2 1,2 2,1 2,1 1),"
           "(3 3,5 3,5 5,3 5,3 3))",
           "GEOMETRYCOLLECTION(POINT(1 1),LINESTRING(2 2,2 2),"
           "LINESTRING(0 0,3 0,3 3,0 0),POLYGON EMPTY,POINT(0 0))",
           "MULTIPOINT((1 1),(1 1),(3 0))",
       }) {
    pool.push_back(Wkt(wkt));
  }
  ASSERT_EQ(pool.size(), 55u);
  std::vector<std::vector<faults::FaultId>> settings = {{}};
  for (int d = 0; d < engine::kNumDialects; ++d) {
    const engine::DialectTraits& traits =
        engine::GetDialectTraits(static_cast<engine::Dialect>(d));
    settings.push_back(
        faults::FaultsForComponent(traits.component, traits.uses_geos));
  }
  spatter::Rng rng(20261021);
  const uint64_t hits_before = CounterValue("relate.operand.hit");
  uint64_t kernel_runs = 0;
  std::map<faults::FaultId, size_t> fired;
  for (int pass = 0; pass < 4; ++pass) {
    std::vector<geom::GeomPtr> images;
    const algo::AffineTransform t = fuzz::RandomIntegerAffine(&rng);
    for (const auto& g : pool) {
      images.push_back(pass < 2 ? g->Clone() : t.Apply(*g));
    }
    std::vector<std::tuple<size_t, size_t, size_t>> calls;
    for (size_t i = 0; i < images.size(); ++i) {
      for (size_t j = 0; j < images.size(); ++j) {
        for (size_t k = 0; k < settings.size(); ++k) {
          calls.emplace_back(i, j, k);
        }
      }
    }
    for (size_t i = calls.size(); i > 1; --i) {
      std::swap(calls[i - 1], calls[rng.IntIn(0, static_cast<int>(i) - 1)]);
    }
    for (const auto& [i, j, k] : calls) {
      const Geometry& a = *images[i];
      const Geometry& b = *images[j];
      const RelateRun got = RunWith(Relate, a, b, settings[k]);
      const RelateRun want = RunWith(RelateUnmemoized, a, b, settings[k]);
      ASSERT_EQ(got, want) << "pass " << pass << ", setting " << k << ": "
                           << a.ToWkt() << " / " << b.ToWkt();
      kernel_runs += got.full;
      for (const faults::FaultId id : want.fired) ++fired[id];
    }
  }
  const uint64_t hits = CounterValue("relate.operand.hit") - hits_before;
  EXPECT_GT(kernel_runs, 30000u);
  // Of the two operand lookups per kernel run, about one in four hits.
  EXPECT_GT(hits, kernel_runs / 2) << "over " << kernel_runs << " kernel runs";
  EXPECT_LT(hits, kernel_runs) << "evictions should cost misses";
  EXPECT_GT(fired[faults::FaultId::kGeosGcBoundaryLastOneWins], 0u);
  EXPECT_GT(fired[faults::FaultId::kGeosBoundaryEmptyElementDrop], 0u);
}

// --- The kernel's effects ----------------------------------------------------

struct Fnv1a {
  uint64_t h = 14695981039346656037ull;
  void Int(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<unsigned char>(v >> (8 * i));
      h *= 1099511628211ull;
    }
  }
  void Str(const std::string& s) {
    Int(s.size());
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
};

TEST(RelateTally, KernelEffectsArePinned) {
  // Every LocatorInputs pair through the kernel, faults null and with the
  // two faults point location fires on: each call's matrix code, fired
  // ids and per-site coverage deltas fold into one hash, sites by their
  // stable key in key order. The value was computed with every site hit
  // and every fault fired where the kernel reached it, so it holds the
  // kernel's tally to that per-hit counting.
  using faults::FaultId;
  auto& registry = CoverageRegistry::Instance();
  faults::FaultState locator_faults;
  locator_faults.Enable(FaultId::kGeosGcBoundaryLastOneWins);
  locator_faults.Enable(FaultId::kGeosBoundaryEmptyElementDrop);
  const auto inputs = LocatorInputs(1);
  Fnv1a hash;
  uint64_t kernel_runs = 0;
  std::map<FaultId, size_t> fired;
  for (const faults::FaultState* f : {static_cast<faults::FaultState*>(nullptr),
                                      &locator_faults}) {
    for (const auto& a : inputs) {
      for (const auto& b : inputs) {
        const RelateRun run = RunRelate(RelateUnmemoized, *a, *b, f);
        hash.Str(run.result);
        hash.Int(run.fired.size());
        for (const FaultId id : run.fired) {
          hash.Int(static_cast<uint64_t>(id));
          ++fired[id];
        }
        std::vector<std::pair<uint64_t, uint64_t>> deltas;
        for (const auto& [site, n] : run.coverage) {
          deltas.emplace_back(registry.KeysOf({site}).at(0), n);
        }
        std::sort(deltas.begin(), deltas.end());
        hash.Int(deltas.size());
        for (const auto& [key, n] : deltas) {
          hash.Int(key);
          hash.Int(n);
        }
        kernel_runs += run.full;
      }
    }
  }
  EXPECT_GT(kernel_runs, 1500u);
  EXPECT_GT(fired[FaultId::kGeosGcBoundaryLastOneWins], 0u);
  EXPECT_GT(fired[FaultId::kGeosBoundaryEmptyElementDrop], 0u);
  EXPECT_EQ(hash.h, 0x2b87f925b12ae6a7ull) << std::hex << "0x" << hash.h << std::dec
                            << " over " << kernel_runs << " kernel runs";
}

// --- The relate front ---------------------------------------------------------

// The point-set dimension by its ForEachBasic definition: the largest
// dimension of a non-empty basic element, where a line without length is
// a point.
int ReferencePointSetDimension(const Geometry& g) {
  int dim = -1;
  geom::ForEachBasic(g, [&dim](const Geometry& basic) {
    if (basic.IsEmpty()) return;
    if (basic.type() == geom::GeomType::kPoint) dim = std::max(dim, 0);
    if (basic.type() == geom::GeomType::kPolygon) dim = std::max(dim, 2);
    if (basic.type() == geom::GeomType::kLineString) {
      const auto& pts = geom::AsLineString(basic).points();
      bool has_length = false;
      for (size_t i = 0; i + 1 < pts.size(); ++i) {
        if (pts[i] != pts[i + 1]) has_length = true;
      }
      dim = std::max(dim, has_length ? 1 : 0);
    }
  });
  return dim;
}

geom::GeomPtr Collection(std::vector<geom::GeomPtr> elems) {
  return geom::MakeCollection(geom::GeomType::kGeometryCollection,
                              std::move(elems));
}

// Generated and mutated rows of all four dialects, plus shapes at the
// edges of the boundary rule: open lines sharing an endpoint an odd and an
// even number of times (signed zeros too, which Coord::operator< counts as
// one point), closed and zero-length lines, empty rings, POLYGON EMPTY
// inside collections, and nested collections.
std::vector<geom::GeomPtr> FrontInputs() {
  std::vector<geom::GeomPtr> out;
  const corpus::MutationEngine mutator;
  for (int d = 0; d < engine::kNumDialects; ++d) {
    engine::Engine e(static_cast<engine::Dialect>(d), false);
    fuzz::GeneratorConfig config;
    config.num_geometries = 24;
    Rng rng(500 + static_cast<uint64_t>(d));
    fuzz::GeometryAwareGenerator gen(config, &rng, &e);
    fuzz::DatabaseSpec sdb = gen.Generate(nullptr);
    for (int round = 0; round < 6; ++round) {
      for (const fuzz::TableSpec& table : sdb.tables) {
        for (const std::string& wkt : table.rows) {
          if (auto g = geom::ReadWkt(wkt); g.ok()) out.push_back(g.Take());
        }
      }
      sdb = mutator.MutateDatabase(sdb, &rng);
    }
  }
  for (const char* wkt : {
           "MULTILINESTRING((0 0,1 0),(1 0,2 0))",
           "MULTILINESTRING((0 0,1 0),(1 0,1 1),(1 1,0 0))",
           "MULTILINESTRING((0 0,1 0),(0 0,0 1),(0 0,-1 0),(1 0,0 1),"
           "(-1 0,0 1))",
           "LINESTRING(0 0,1 0,1 1,0 0)",
           "LINESTRING(1 1,1 1)",
           "MULTILINESTRING((1 1,1 1),(2 2,3 3))",
           "GEOMETRYCOLLECTION(POLYGON EMPTY,LINESTRING(0 0,1 1))",
           "GEOMETRYCOLLECTION(POLYGON EMPTY,LINESTRING(0 0,1 1),"
           "LINESTRING(1 1,0 0))",
           "GEOMETRYCOLLECTION(GEOMETRYCOLLECTION(LINESTRING(0 0,1 1),"
           "GEOMETRYCOLLECTION(LINESTRING(1 1,2 2))),POINT(5 5))",
           "GEOMETRYCOLLECTION(GEOMETRYCOLLECTION(LINESTRING(0 0,1 1)),"
           "LINESTRING(1 1,0 0))",
           "GEOMETRYCOLLECTION(GEOMETRYCOLLECTION EMPTY,POINT(1 1))",
           "MULTIPOLYGON(((0 0,1 0,1 1,0 0)),EMPTY)",
           "MULTIPOINT((0 0),EMPTY)",
           "POLYGON((0 0,0 0,0 0,0 0))",
           "GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,2 0),"
           "POLYGON((5 5,6 5,6 6,5 5)))",
       }) {
    out.push_back(geom::ReadWkt(wkt).Take());
  }
  using geom::MakeLineString;
  // (-0 0) and (0 0) are one endpoint, met twice: only (1 0) and (2 0)
  // are odd; then with (1 0) twice as well, none is.
  {
    std::vector<geom::GeomPtr> lines;
    lines.push_back(MakeLineString({{-0.0, 0}, {1, 0}}));
    lines.push_back(MakeLineString({{0.0, 0}, {2, 0}}));
    out.push_back(geom::MakeCollection(geom::GeomType::kMultiLineString,
                                       std::move(lines)));
  }
  {
    std::vector<geom::GeomPtr> lines;
    lines.push_back(MakeLineString({{-0.0, 0}, {1, 0}}));
    lines.push_back(MakeLineString({{1, 0}, {0.0, -0.0}}));
    out.push_back(geom::MakeCollection(geom::GeomType::kMultiLineString,
                                       std::move(lines)));
  }
  // A line of one point, and polygons whose rings are empty: an empty ring
  // adds no boundary, a non-empty hole behind an empty shell does.
  {
    std::vector<geom::GeomPtr> elems;
    elems.push_back(MakeLineString({{1, 1}}));
    elems.push_back(geom::MakePoint(3, 3));
    out.push_back(Collection(std::move(elems)));
  }
  {
    std::vector<geom::GeomPtr> elems;
    elems.push_back(geom::MakePolygon({{}}));
    elems.push_back(MakeLineString({{0, 0}, {1, 1}}));
    out.push_back(Collection(std::move(elems)));
  }
  {
    std::vector<geom::GeomPtr> elems;
    elems.push_back(geom::MakePolygon({{}, {{0, 0}, {1, 0}, {1, 1}, {0, 0}}}));
    elems.push_back(geom::MakePoint(3, 3));
    out.push_back(Collection(std::move(elems)));
  }
  return out;
}

TEST(RelateFront, ClosedFormsFollowTheBoundaryAndPointSetDefinitions) {
  // Relate(EMPTY, g)'s exterior row, Relate(g, EMPTY)'s exterior column
  // and a pre-filtered pair's matrix hold g's point-set dimension and
  // algo::Boundary(g)'s dimension.
  const geom::GeomPtr empties[] = {Wkt("POINT EMPTY"),
                                   Wkt("GEOMETRYCOLLECTION EMPTY")};
  const geom::GeomPtr far = Wkt("POINT(1e6 1e6)");
  std::map<int, size_t> boundary_dims;
  size_t checked = 0;
  for (const auto& g : FrontInputs()) {
    if (g->IsEmpty()) continue;
    const int interior = ReferencePointSetDimension(*g);
    const int boundary = algo::Boundary(*g)->Dimension();
    ++boundary_dims[boundary];
    for (const auto& e : empties) {
      const IntersectionMatrix row = Relate(*e, *g).Take();
      EXPECT_EQ(row.At(Location::kExterior, Location::kInterior), interior)
          << g->ToWkt();
      EXPECT_EQ(row.At(Location::kExterior, Location::kBoundary), boundary)
          << g->ToWkt();
      const IntersectionMatrix col = Relate(*g, *e).Take();
      EXPECT_EQ(col.At(Location::kInterior, Location::kExterior), interior)
          << g->ToWkt();
      EXPECT_EQ(col.At(Location::kBoundary, Location::kExterior), boundary)
          << g->ToWkt();
    }
    const uint64_t prefiltered = CounterValue("relate.envelope_prefilter");
    const IntersectionMatrix im = Relate(*g, *far).Take();
    ASSERT_EQ(CounterValue("relate.envelope_prefilter"), prefiltered + 1)
        << g->ToWkt();
    IntersectionMatrix want;
    want.Set(Location::kInterior, Location::kExterior, interior);
    want.Set(Location::kBoundary, Location::kExterior, boundary);
    want.Set(Location::kExterior, Location::kInterior, 0);
    want.Set(Location::kExterior, Location::kExterior, 2);
    EXPECT_EQ(im.Code(), want.Code()) << g->ToWkt();
    ++checked;
  }
  EXPECT_GT(checked, 300u);
  EXPECT_GT(boundary_dims[-1], 10u);
  EXPECT_GT(boundary_dims[0], 10u);
  EXPECT_GT(boundary_dims[1], 10u);
}

TEST(RelateFront, PrefilterAgreesWithTheKernelNearTheTolerance) {
  // OnSegment accepts a point kDerivedEps * |coordinate| beyond a segment's
  // end, so a fixed pre-filter margin called such touching pairs disjoint
  // at large magnitudes. A one-element collection under a FaultState skips
  // the pre-filter, so it is the kernel's answer for the same point set.
  const faults::FaultState no_faults;
  EXPECT_EQ(Relate(*Wkt("POINT(1000 0)"), *Wkt("LINESTRING(0 0,999.9999999 0)"))
                .Take()
                .Code(),
            "0FFFFF102");
  size_t prefiltered_pairs = 0;
  for (const double m : {1.0, 1e3, 1e6}) {
    const double tol = geom::kDerivedEps * m;
    // Gaps just inside and just outside the kernel's tolerance, and one
    // wide enough for the pre-filter.
    for (const double k : {0.5, 0.9, 1.1, 2.0, 40.0}) {
      const double x = m + k * tol;
      std::vector<std::pair<geom::GeomPtr, geom::GeomPtr>> pairs;
      // A point past a line's end.
      pairs.emplace_back(geom::MakePoint(x, 0),
                         geom::MakeLineString({{0, 0}, {m, 0}}));
      // Two collinear lines end to end.
      pairs.emplace_back(geom::MakeLineString({{x, 0}, {2 * m, 0}}),
                         geom::MakeLineString({{0, 0}, {m, 0}}));
      // A point beside a polygon edge.
      pairs.emplace_back(
          geom::MakePoint(x, m / 2),
          geom::MakePolygon({{{0, 0}, {m, 0}, {m, m}, {0, m}, {0, 0}}}));
      for (const auto& [a, b] : pairs) {
        std::vector<geom::GeomPtr> elems;
        elems.push_back(a->Clone());
        const geom::GeomPtr gc = Collection(std::move(elems));
        const std::string at = a->ToWkt() + " / " + b->ToWkt();
        const uint64_t before = CounterValue("relate.envelope_prefilter");
        const std::string got = Relate(*a, *b, nullptr).Take().Code();
        const std::string got_t = Relate(*b, *a, nullptr).Take().Code();
        prefiltered_pairs +=
            CounterValue("relate.envelope_prefilter") > before ? 1 : 0;
        EXPECT_EQ(got, Relate(*gc, *b, &no_faults).Take().Code()) << at;
        EXPECT_EQ(got_t, Relate(*b, *gc, &no_faults).Take().Code()) << at;
      }
    }
  }
  EXPECT_GE(prefiltered_pairs, 3u) << "the widest gaps take the pre-filter";
}

}  // namespace
}  // namespace spatter::relate
