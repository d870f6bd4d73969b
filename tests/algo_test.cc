// Tests for algorithms: distance, max distance, convex hull, boundary,
// polygonize, validity, and the derivative-strategy edit functions.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "algo/boundary.h"
#include "algo/convex_hull.h"
#include "algo/distance.h"
#include "algo/edit_functions.h"
#include "algo/polygonize.h"
#include "algo/ring_ops.h"
#include "algo/validity.h"
#include "common/rng.h"
#include "geom/wkt_reader.h"

namespace spatter::algo {
namespace {

using geom::Coord;

geom::GeomPtr Read(const std::string& wkt) {
  auto r = geom::ReadWkt(wkt);
  EXPECT_TRUE(r.ok()) << wkt;
  return r.Take();
}

// --- Distance ----------------------------------------------------------------

TEST(Distance, PointToSegment) {
  EXPECT_DOUBLE_EQ(PointSegmentDistance({0, 5}, {-3, 0}, {3, 0}), 5.0);
  EXPECT_DOUBLE_EQ(PointSegmentDistance({10, 0}, {-3, 0}, {3, 0}), 7.0);
  EXPECT_DOUBLE_EQ(PointSegmentDistance({1, 1}, {2, 2}, {2, 2}), std::sqrt(2));
}

TEST(Distance, SegmentToSegment) {
  EXPECT_DOUBLE_EQ(SegmentSegmentDistance({0, 0}, {1, 0}, {0, 2}, {1, 2}),
                   2.0);
  EXPECT_DOUBLE_EQ(SegmentSegmentDistance({0, 0}, {2, 2}, {0, 2}, {2, 0}),
                   0.0);
}

TEST(Distance, GeometryMinDistance) {
  EXPECT_DOUBLE_EQ(
      *MinDistance(*Read("POINT(0 5)"), *Read("LINESTRING(-3 0,3 0)")), 5.0);
  EXPECT_DOUBLE_EQ(*MinDistance(*Read("POINT(5 5)"),
                                *Read("POLYGON((0 0,10 0,10 10,0 10,0 0))")),
                   0.0)
      << "points inside a polygon have zero distance";
  EXPECT_DOUBLE_EQ(*MinDistance(*Read("POINT(15 0)"),
                                *Read("POLYGON((0 0,10 0,10 10,0 10,0 0))")),
                   5.0);
}

TEST(Distance, PaperListing5CorrectSemantics) {
  // EMPTY elements are skipped: the answer is 2, not 3.
  EXPECT_DOUBLE_EQ(*MinDistance(*Read("MULTIPOINT((1 0),(0 0))"),
                                *Read("MULTIPOINT((-2 0),EMPTY)")),
                   2.0);
  EXPECT_DOUBLE_EQ(*MinDistance(*Read("MULTIPOINT((1 0),(0 0))"),
                                *Read("POINT(-2 0)")),
                   2.0);
}

TEST(Distance, EmptyInputsYieldNull) {
  EXPECT_FALSE(MinDistance(*Read("POINT EMPTY"), *Read("POINT(0 0)")));
  EXPECT_FALSE(MinDistance(*Read("MULTIPOINT(EMPTY)"), *Read("POINT(0 0)")));
  EXPECT_FALSE(MaxDistance(*Read("POINT EMPTY"), *Read("POINT(0 0)")));
}

TEST(Distance, MaxDistanceOverVertices) {
  EXPECT_DOUBLE_EQ(
      *MaxDistance(*Read("MULTIPOINT((0 0),(10 0))"), *Read("POINT(0 0)")),
      10.0);
  // Listing 9 shapes: identical ring and triangle -> max distance 0.
  EXPECT_DOUBLE_EQ(*MaxDistance(*Read("LINESTRING(0 0,0 1,1 0,0 0)"),
                                *Read("POLYGON((0 0,0 1,1 0,0 0))")),
                   0.0);
}

// --- Convex hull --------------------------------------------------------------

TEST(ConvexHull, SquarePlusInteriorPoints) {
  const auto hull =
      ConvexHull(*Read("MULTIPOINT((0 0),(10 0),(10 10),(0 10),(5 5),(2 3))"));
  ASSERT_EQ(hull->type(), geom::GeomType::kPolygon);
  EXPECT_EQ(geom::AsPolygon(*hull).Shell().size(), 5u);
  EXPECT_DOUBLE_EQ(PolygonArea(geom::AsPolygon(*hull)), 100.0);
}

TEST(ConvexHull, DegenerateInputs) {
  EXPECT_EQ(ConvexHull(*Read("POINT(3 4)"))->ToWkt(), "POINT(3 4)");
  EXPECT_EQ(ConvexHull(*Read("MULTIPOINT((0 0),(2 2),(1 1))"))->type(),
            geom::GeomType::kLineString);
  EXPECT_TRUE(ConvexHull(*Read("POINT EMPTY"))->IsEmpty());
}

TEST(ConvexHull, CollectsAllComponents) {
  const auto hull = ConvexHull(
      *Read("GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(10 0,10 10))"));
  ASSERT_EQ(hull->type(), geom::GeomType::kPolygon);
}

// --- Boundary -----------------------------------------------------------------

TEST(Boundary, LineEndpoints) {
  EXPECT_EQ(Boundary(*Read("LINESTRING(0 0,1 1,2 0)"))->ToWkt(),
            "MULTIPOINT((0 0),(2 0))");
}

TEST(Boundary, ClosedLineIsEmpty) {
  EXPECT_TRUE(Boundary(*Read("LINESTRING(0 0,1 1,2 0,0 0)"))->IsEmpty());
}

TEST(Boundary, Mod2OverMultiLine) {
  // Two lines sharing one endpoint: the shared endpoint cancels.
  const auto b = Boundary(*Read("MULTILINESTRING((0 0,1 0),(1 0,2 0))"));
  EXPECT_EQ(b->ToWkt(), "MULTIPOINT((0 0),(2 0))");
  // T-junction: endpoint occurring once stays.
  const auto t = Boundary(*Read("MULTILINESTRING((0 0,2 0),(1 0,1 1))"));
  EXPECT_EQ(t->NumCoords(), 4u);
}

TEST(Boundary, PolygonRings) {
  EXPECT_EQ(Boundary(*Read("POLYGON((0 0,1 0,1 1,0 0))"))->ToWkt(),
            "LINESTRING(0 0,1 0,1 1,0 0)");
  const auto b = Boundary(
      *Read("POLYGON((0 0,10 0,10 10,0 10,0 0),(2 2,4 2,4 4,2 4,2 2))"));
  EXPECT_EQ(b->type(), geom::GeomType::kMultiLineString);
  EXPECT_EQ(geom::AsCollection(*b).NumElements(), 2u);
}

TEST(Boundary, PointHasEmptyBoundary) {
  EXPECT_TRUE(Boundary(*Read("POINT(1 1)"))->IsEmpty());
  EXPECT_TRUE(Boundary(*Read("MULTIPOINT((1 1),(2 2))"))->IsEmpty());
}

TEST(Boundary, MixedCollection) {
  const auto b = Boundary(
      *Read("GEOMETRYCOLLECTION(LINESTRING(0 0,1 0),POLYGON((5 5,6 5,6 6,5 "
            "5)))"));
  // Endpoints of the line plus the polygon ring.
  EXPECT_EQ(b->type(), geom::GeomType::kGeometryCollection);
  EXPECT_EQ(geom::AsCollection(*b).NumElements(), 3u);
}

TEST(Boundary, DimensionMatchesTheBuiltBoundary) {
  std::vector<std::pair<geom::GeomPtr, int>> cases;
  for (const auto& [wkt, dim] : std::vector<std::pair<const char*, int>>{
           {"POINT(1 1)", -1},
           {"MULTIPOINT((1 1),(2 2))", -1},
           {"LINESTRING(0 0,1 1,2 0)", 0},
           {"LINESTRING(0 0,1 1,2 0,0 0)", -1},
           {"LINESTRING(1 1,1 1)", -1},
           {"MULTILINESTRING((0 0,1 0),(1 0,2 0))", 0},
           {"MULTILINESTRING((0 0,1 0),(1 0,1 1),(1 1,0 0))", -1},
           {"POLYGON((0 0,1 0,1 1,0 0))", 1},
           {"POLYGON((0 0,0 0,0 0,0 0))", 1},
           {"MULTIPOLYGON(((0 0,1 0,1 1,0 0)),EMPTY)", 1},
           {"POLYGON EMPTY", -1},
           {"GEOMETRYCOLLECTION(POLYGON EMPTY,LINESTRING(0 0,1 1),"
            "LINESTRING(1 1,0 0))",
            -1},
           {"GEOMETRYCOLLECTION(GEOMETRYCOLLECTION(LINESTRING(0 0,1 1)),"
            "LINESTRING(1 1,2 2),POINT(5 5))",
            0},
           {"GEOMETRYCOLLECTION EMPTY", -1},
       }) {
    cases.emplace_back(Read(wkt), dim);
  }
  const auto lines = [](std::vector<std::vector<Coord>> parts) {
    std::vector<geom::GeomPtr> elems;
    for (auto& p : parts) elems.push_back(geom::MakeLineString(std::move(p)));
    return geom::MakeCollection(geom::GeomType::kMultiLineString,
                                std::move(elems));
  };
  // -0 and 0 are one endpoint; an empty shell adds no ring, a hole does.
  cases.emplace_back(lines({{{-0.0, 0}, {1, 0}}, {{0.0, 0}, {2, 0}}}), 0);
  cases.emplace_back(lines({{{-0.0, 0}, {1, 0}}, {{1, 0}, {0.0, -0.0}}}), -1);
  cases.emplace_back(geom::MakePolygon({{}}), -1);
  cases.emplace_back(
      geom::MakePolygon({{}, {{0, 0}, {1, 0}, {1, 1}, {0, 0}}}), 1);
  for (const auto& [g, dim] : cases) {
    EXPECT_EQ(BoundaryDimension(*g), dim) << g->ToWkt();
    EXPECT_EQ(Boundary(*g)->Dimension(), dim) << g->ToWkt();
  }
  // A NaN endpoint is grouped as Boundary's std::map groups it.
  const double nan = std::nan("");
  for (const auto& g : {lines({{{nan, 0}, {1, 0}}, {{1, 0}, {nan, 0}}}),
                        lines({{{0, nan}, {1, 0}}, {{2, 0}, {1, 0}}})}) {
    EXPECT_EQ(BoundaryDimension(*g), Boundary(*g)->Dimension()) << g->ToWkt();
  }
}

// --- Polygonize ----------------------------------------------------------------

TEST(Polygonize, ClosedRingFormsPolygon) {
  const auto result = Polygonize(*Read("LINESTRING(0 0,4 0,4 4,0 4,0 0)"));
  const auto& coll = geom::AsCollection(*result);
  ASSERT_EQ(coll.NumElements(), 1u);
  EXPECT_EQ(coll.ElementAt(0).type(), geom::GeomType::kPolygon);
  EXPECT_DOUBLE_EQ(PolygonArea(geom::AsPolygon(coll.ElementAt(0))), 16.0);
}

TEST(Polygonize, TwoRingsFromCrossingLines) {
  // A bow-tie drawn as linework produces two triangular faces.
  const auto result =
      Polygonize(*Read("LINESTRING(0 0,4 4,0 4,4 0,0 0)"));
  const auto& coll = geom::AsCollection(*result);
  EXPECT_EQ(coll.NumElements(), 2u);
}

TEST(Polygonize, OpenLineworkYieldsNothing) {
  EXPECT_TRUE(Polygonize(*Read("LINESTRING(0 0,1 1,2 0)"))->IsEmpty());
  EXPECT_TRUE(Polygonize(*Read("POINT(1 1)"))->IsEmpty());
  EXPECT_TRUE(Polygonize(*Read("LINESTRING EMPTY"))->IsEmpty());
}

TEST(Polygonize, SquareFromSeparateEdges) {
  const auto result = Polygonize(*Read(
      "MULTILINESTRING((0 0,4 0),(4 0,4 4),(4 4,0 4),(0 4,0 0))"));
  const auto& coll = geom::AsCollection(*result);
  ASSERT_EQ(coll.NumElements(), 1u);
  EXPECT_DOUBLE_EQ(PolygonArea(geom::AsPolygon(coll.ElementAt(0))), 16.0);
}

// --- Validity -------------------------------------------------------------------

TEST(Validity, ValidShapes) {
  for (const char* wkt : {
           "POINT(1 1)", "POINT EMPTY", "LINESTRING(0 0,1 1)",
           "POLYGON((0 0,10 0,10 10,0 10,0 0))",
           "POLYGON((0 0,10 0,10 10,0 10,0 0),(2 2,4 2,4 4,2 4,2 2))",
           "MULTIPOLYGON(((0 0,5 0,0 5,0 0)),((10 10,15 10,10 15,10 10)))",
           "GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0))",
       }) {
    EXPECT_TRUE(IsValid(*Read(wkt))) << wkt;
  }
}

TEST(Validity, SelfIntersectingPolygonRejected) {
  // The paper's example of a syntactically valid but invalid shape.
  const auto st = CheckValid(*Read("POLYGON((0 0,1 1,0 1,1 0,0 0))"));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidGeometry);
}

TEST(Validity, DegenerateRingsRejected) {
  EXPECT_FALSE(IsValid(*Read("POLYGON((0 0,1 0,0 0))")));       // too few
  EXPECT_FALSE(IsValid(*Read("POLYGON((0 0,1 0,1 1,0 1))")));   // not closed
  EXPECT_FALSE(IsValid(*Read("LINESTRING(1 1)")));              // one point
}

TEST(Validity, HoleOutsideShellRejected) {
  EXPECT_FALSE(IsValid(*Read(
      "POLYGON((0 0,4 0,4 4,0 4,0 0),(10 10,11 10,11 11,10 11,10 10))")));
}

TEST(Validity, OverlappingMultiPolygonRejected) {
  EXPECT_FALSE(IsValid(*Read(
      "MULTIPOLYGON(((0 0,10 0,10 10,0 10,0 0)),((5 5,15 5,15 15,5 15,5 "
      "5)))")));
}

TEST(Validity, CollectionValidatesElements) {
  EXPECT_FALSE(IsValid(
      *Read("GEOMETRYCOLLECTION(POLYGON((0 0,1 1,0 1,1 0,0 0)))")));
}

// --- Edit functions ---------------------------------------------------------------

TEST(EditFunctions, SetPoint) {
  const auto g = Read("LINESTRING(0 0,1 1,2 2)");
  const auto r = SetPoint(*g, 1, {9, 9});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()->ToWkt(), "LINESTRING(0 0,9 9,2 2)");
  EXPECT_FALSE(SetPoint(*g, 5, {0, 0}).ok());
  EXPECT_FALSE(SetPoint(*Read("POINT(1 1)"), 0, {0, 0}).ok());
}

TEST(EditFunctions, DumpRings) {
  const auto r = DumpRings(
      *Read("POLYGON((0 0,10 0,10 10,0 10,0 0),(2 2,4 2,4 4,2 4,2 2))"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(geom::AsCollection(*r.value()).NumElements(), 2u);
  EXPECT_FALSE(DumpRings(*Read("POLYGON EMPTY")).ok());
  EXPECT_FALSE(DumpRings(*Read("POINT(1 1)")).ok());
}

TEST(EditFunctions, ForcePolygonCW) {
  const auto r = ForcePolygonCW(*Read("POLYGON((0 0,10 0,10 10,0 10,0 0))"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(IsCcw(geom::AsPolygon(*r.value()).Shell()));
  // Holes become counter-clockwise.
  const auto rh = ForcePolygonCW(*Read(
      "POLYGON((0 0,10 0,10 10,0 10,0 0),(2 2,4 2,4 4,2 4,2 2))"));
  ASSERT_TRUE(rh.ok());
  EXPECT_TRUE(IsCcw(geom::AsPolygon(*rh.value()).rings()[1]));
  EXPECT_FALSE(ForcePolygonCW(*Read("POINT(0 0)")).ok());
}

TEST(EditFunctions, GeometryNOneBased) {
  const auto g = Read("MULTIPOINT((1 1),(2 2),(3 3))");
  EXPECT_EQ(GeometryN(*g, 1).value()->ToWkt(), "POINT(1 1)");
  EXPECT_EQ(GeometryN(*g, 3).value()->ToWkt(), "POINT(3 3)");
  EXPECT_FALSE(GeometryN(*g, 0).ok());
  EXPECT_FALSE(GeometryN(*g, 4).ok());
  EXPECT_FALSE(GeometryN(*Read("POINT(1 1)"), 1).ok());
}

TEST(EditFunctions, CollectionExtract) {
  const auto g = Read(
      "GEOMETRYCOLLECTION(POINT(1 1),LINESTRING(0 0,1 0),POINT(2 2))");
  const auto pts = CollectionExtract(*g, geom::GeomType::kPoint);
  ASSERT_TRUE(pts.ok());
  EXPECT_EQ(pts.value()->ToWkt(), "MULTIPOINT((1 1),(2 2))");
  const auto lines = CollectionExtract(*g, geom::GeomType::kLineString);
  EXPECT_EQ(lines.value()->ToWkt(), "MULTILINESTRING((0 0,1 0))");
  const auto polys = CollectionExtract(*g, geom::GeomType::kPolygon);
  EXPECT_TRUE(polys.value()->IsEmpty());
}

TEST(EditFunctions, PointNReverseEnvelopeCollect) {
  EXPECT_EQ(PointN(*Read("LINESTRING(0 0,1 1,2 2)"), 2).value()->ToWkt(),
            "POINT(1 1)");
  EXPECT_FALSE(PointN(*Read("LINESTRING(0 0,1 1)"), 3).ok());
  EXPECT_EQ(Reverse(*Read("LINESTRING(0 0,1 1,2 0)")).value()->ToWkt(),
            "LINESTRING(2 0,1 1,0 0)");
  EXPECT_EQ(EnvelopeOf(*Read("LINESTRING(0 0,4 2)")).value()->ToWkt(),
            "POLYGON((0 0,4 0,4 2,0 2,0 0))");
  EXPECT_EQ(EnvelopeOf(*Read("POINT(3 3)")).value()->ToWkt(), "POINT(3 3)");
  EXPECT_FALSE(EnvelopeOf(*Read("POINT EMPTY")).ok());
  EXPECT_EQ(Collect(*Read("POINT(1 1)"), *Read("POINT(2 2)")).value()->type(),
            geom::GeomType::kMultiPoint);
  EXPECT_EQ(
      Collect(*Read("POINT(1 1)"), *Read("LINESTRING(0 0,1 1)")).value()->type(),
      geom::GeomType::kGeometryCollection);
}

}  // namespace
}  // namespace spatter::algo
