// Ring operation tests: signed area, point-in-ring/polygon, interior point,
// centroid.
#include "algo/ring_ops.h"

#include <gtest/gtest.h>

#include "geom/wkt_reader.h"

namespace spatter::algo {
namespace {

using geom::AsPolygon;
using geom::Coord;

const std::vector<Coord> kUnitSquareCcw = {
    {0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}};

geom::GeomPtr Read(const std::string& wkt) {
  auto r = geom::ReadWkt(wkt);
  EXPECT_TRUE(r.ok()) << wkt;
  return r.Take();
}

TEST(SignedRingArea, OrientationSign) {
  EXPECT_DOUBLE_EQ(SignedRingArea(kUnitSquareCcw), 100.0);
  auto cw = kUnitSquareCcw;
  std::reverse(cw.begin(), cw.end());
  EXPECT_DOUBLE_EQ(SignedRingArea(cw), -100.0);
  EXPECT_TRUE(IsCcw(kUnitSquareCcw));
  EXPECT_FALSE(IsCcw(cw));
}

TEST(SignedRingArea, UnclosedRingClosesImplicitly) {
  const std::vector<Coord> open = {{0, 0}, {10, 0}, {10, 10}, {0, 10}};
  EXPECT_DOUBLE_EQ(SignedRingArea(open), 100.0);
}

TEST(SignedRingArea, DegenerateRings) {
  EXPECT_DOUBLE_EQ(SignedRingArea({}), 0.0);
  EXPECT_DOUBLE_EQ(SignedRingArea({{1, 1}}), 0.0);
  EXPECT_DOUBLE_EQ(SignedRingArea({{0, 0}, {5, 5}}), 0.0);
}

TEST(LocateInRing, InteriorBoundaryExterior) {
  EXPECT_EQ(LocateInRing({5, 5}, kUnitSquareCcw), RingLocation::kInterior);
  EXPECT_EQ(LocateInRing({0, 5}, kUnitSquareCcw), RingLocation::kBoundary);
  EXPECT_EQ(LocateInRing({10, 10}, kUnitSquareCcw),
            RingLocation::kBoundary);
  EXPECT_EQ(LocateInRing({-1, 5}, kUnitSquareCcw), RingLocation::kExterior);
  EXPECT_EQ(LocateInRing({11, 5}, kUnitSquareCcw), RingLocation::kExterior);
}

TEST(LocateInRing, RayThroughVertexCountsOnce) {
  // Point aligned with two vertices: the half-open rule avoids double
  // counting.
  const std::vector<Coord> diamond = {{0, 5}, {5, 0}, {10, 5}, {5, 10}, {0, 5}};
  EXPECT_EQ(LocateInRing({5, 5}, diamond), RingLocation::kInterior);
  EXPECT_EQ(LocateInRing({-2, 5}, diamond), RingLocation::kExterior);
  EXPECT_EQ(LocateInRing({12, 5}, diamond), RingLocation::kExterior);
}

TEST(LocateInPolygon, HolesExcluded) {
  const auto poly = Read(
      "POLYGON((0 0,10 0,10 10,0 10,0 0),(3 3,7 3,7 7,3 7,3 3))");
  const auto& p = AsPolygon(*poly);
  EXPECT_EQ(LocateInPolygon({1, 1}, p), RingLocation::kInterior);
  EXPECT_EQ(LocateInPolygon({5, 5}, p), RingLocation::kExterior);  // in hole
  EXPECT_EQ(LocateInPolygon({3, 5}, p), RingLocation::kBoundary);  // hole ring
  EXPECT_EQ(LocateInPolygon({0, 0}, p), RingLocation::kBoundary);
  EXPECT_EQ(LocateInPolygon({20, 20}, p), RingLocation::kExterior);
}

TEST(LocateInPolygon, EmptyPolygon) {
  const auto poly = Read("POLYGON EMPTY");
  EXPECT_EQ(LocateInPolygon({0, 0}, AsPolygon(*poly)),
            RingLocation::kExterior);
}

TEST(PolygonArea, SubtractsHoles) {
  const auto poly = Read(
      "POLYGON((0 0,10 0,10 10,0 10,0 0),(3 3,7 3,7 7,3 7,3 3))");
  EXPECT_DOUBLE_EQ(PolygonArea(AsPolygon(*poly)), 100.0 - 16.0);
}

TEST(GeometryArea, SumsOverCollection) {
  const auto gc = Read(
      "GEOMETRYCOLLECTION(POLYGON((0 0,2 0,2 2,0 2,0 0)),"
      "MULTIPOLYGON(((10 10,14 10,14 14,10 14,10 10))),POINT(1 1))");
  EXPECT_DOUBLE_EQ(GeometryArea(*gc), 4.0 + 16.0);
}

TEST(GeometryLength, SumsLineComponents) {
  const auto g = Read("MULTILINESTRING((0 0,3 4),(0 0,0 2))");
  EXPECT_DOUBLE_EQ(GeometryLength(*g), 5.0 + 2.0);
}

TEST(InteriorPoint, SimplePolygon) {
  const auto poly = Read("POLYGON((0 0,10 0,10 10,0 10,0 0))");
  const auto ip = InteriorPointOfPolygon(AsPolygon(*poly));
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(LocateInPolygon(*ip, AsPolygon(*poly)),
            RingLocation::kInterior);
}

TEST(InteriorPoint, PolygonWithBigHole) {
  // Interior is a thin annulus; the scanline must land inside it.
  const auto poly = Read(
      "POLYGON((0 0,10 0,10 10,0 10,0 0),(1 1,9 1,9 9,1 9,1 1))");
  const auto ip = InteriorPointOfPolygon(AsPolygon(*poly));
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(LocateInPolygon(*ip, AsPolygon(*poly)),
            RingLocation::kInterior);
}

TEST(InteriorPoint, TriangleAndConcave) {
  for (const char* wkt :
       {"POLYGON((0 0,5 0,0 5,0 0))",
        "POLYGON((0 0,10 0,10 10,5 2,0 10,0 0))",  // concave "M" shape
        "POLYGON((0 0,1 0,1 1,0 1,0 0))"}) {
    const auto poly = Read(wkt);
    const auto ip = InteriorPointOfPolygon(AsPolygon(*poly));
    ASSERT_TRUE(ip.has_value()) << wkt;
    EXPECT_EQ(LocateInPolygon(*ip, AsPolygon(*poly)),
              RingLocation::kInterior)
        << wkt;
  }
}

TEST(InteriorPoint, EmptyAndDegenerate) {
  EXPECT_FALSE(
      InteriorPointOfPolygon(AsPolygon(*Read("POLYGON EMPTY"))).has_value());
}

}  // namespace
}  // namespace spatter::algo
