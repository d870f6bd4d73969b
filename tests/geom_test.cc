// Unit tests for the geometry model (src/geom).
#include "geom/geometry.h"

#include <gtest/gtest.h>

#include "geom/envelope.h"

namespace spatter::geom {
namespace {

TEST(Coord, ComparisonAndArithmetic) {
  const Coord a{1, 2};
  const Coord b{1, 3};
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_EQ(a + b, Coord(2, 5));
  EXPECT_EQ(b - a, Coord(0, 1));
  EXPECT_EQ(a * 2.0, Coord(2, 4));
  EXPECT_EQ(Midpoint(a, b), Coord(1, 2.5));
}

TEST(Coord, Distance) {
  EXPECT_DOUBLE_EQ(DistanceBetween({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(DistanceSquared({0, 0}, {3, 4}), 25.0);
}

TEST(Envelope, NullBehaviour) {
  Envelope e;
  EXPECT_TRUE(e.IsNull());
  EXPECT_FALSE(e.Intersects(Envelope(0, 0, 1, 1)));
  EXPECT_FALSE(Envelope(0, 0, 1, 1).Intersects(e));
  e.ExpandToInclude(Coord{2, 3});
  EXPECT_FALSE(e.IsNull());
  EXPECT_EQ(e.min_x(), 2);
  EXPECT_EQ(e.max_y(), 3);
}

TEST(Envelope, IntersectsAndContains) {
  const Envelope a(0, 0, 10, 10);
  const Envelope b(5, 5, 15, 15);
  const Envelope c(11, 11, 12, 12);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(b.Intersects(c));
  EXPECT_TRUE(a.Contains(Envelope(1, 1, 2, 2)));
  EXPECT_FALSE(a.Contains(b));
  EXPECT_TRUE(a.Contains(Coord{10, 10}));
  EXPECT_FALSE(a.Contains(Coord{10.5, 10}));
}

TEST(Envelope, TouchingBoxesIntersect) {
  EXPECT_TRUE(Envelope(0, 0, 1, 1).Intersects(Envelope(1, 1, 2, 2)));
}

TEST(Point, EmptyAndFilled) {
  Point empty;
  EXPECT_TRUE(empty.IsEmpty());
  EXPECT_EQ(empty.Dimension(), -1);
  EXPECT_TRUE(empty.GetEnvelope().IsNull());
  EXPECT_EQ(empty.NumCoords(), 0u);

  Point p(1, 2);
  EXPECT_FALSE(p.IsEmpty());
  EXPECT_EQ(p.Dimension(), 0);
  EXPECT_EQ(p.NumCoords(), 1u);
  EXPECT_EQ(p.GetEnvelope(), Envelope(1, 2, 1, 2));
}

TEST(LineString, BasicProperties) {
  LineString line({{0, 0}, {1, 0}, {1, 1}});
  EXPECT_EQ(line.Dimension(), 1);
  EXPECT_EQ(line.NumPoints(), 3u);
  EXPECT_FALSE(line.IsClosed());
  EXPECT_FALSE(line.IsRing());

  LineString ring({{0, 0}, {1, 0}, {1, 1}, {0, 0}});
  EXPECT_TRUE(ring.IsClosed());
  EXPECT_TRUE(ring.IsRing());
}

TEST(Polygon, ShellAndHoles) {
  Polygon poly({{{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}},
                {{2, 2}, {4, 2}, {4, 4}, {2, 4}, {2, 2}}});
  EXPECT_EQ(poly.Dimension(), 2);
  EXPECT_EQ(poly.NumRings(), 2u);
  EXPECT_EQ(poly.NumHoles(), 1u);
  EXPECT_EQ(poly.NumCoords(), 10u);
  // Envelope covers all rings (holes included, conservatively).
  EXPECT_EQ(poly.GetEnvelope(), Envelope(0, 0, 10, 10));
}

TEST(GeometryCollection, DimensionIsMax) {
  std::vector<GeomPtr> elems;
  elems.push_back(MakePoint(0, 0));
  elems.push_back(MakeLineString({{0, 0}, {1, 1}}));
  GeometryCollection gc(std::move(elems));
  EXPECT_EQ(gc.Dimension(), 1);
  EXPECT_FALSE(gc.IsEmpty());
  EXPECT_EQ(gc.NumCoords(), 3u);
}

TEST(GeometryCollection, EmptyWithEmptyElements) {
  std::vector<GeomPtr> elems;
  elems.push_back(MakeEmpty(GeomType::kPoint));
  GeometryCollection gc(std::move(elems));
  EXPECT_TRUE(gc.IsEmpty());
  EXPECT_EQ(gc.NumElements(), 1u);
}

TEST(Geometry, CloneIsDeep) {
  GeomPtr original = MakeLineString({{0, 0}, {1, 1}});
  GeomPtr copy = original->Clone();
  static_cast<LineString*>(copy.get())->mutable_points()[0] = {5, 5};
  EXPECT_EQ(AsLineString(*original).PointAt(0), Coord(0, 0));
  EXPECT_EQ(AsLineString(*copy).PointAt(0), Coord(5, 5));
}

TEST(Geometry, EqualsExactDistinguishesTypes) {
  GeomPtr p = MakePoint(1, 1);
  GeomPtr mp = MakeCollection(GeomType::kMultiPoint, {});
  static_cast<GeometryCollection*>(mp.get())->AddElement(MakePoint(1, 1));
  EXPECT_FALSE(p->EqualsExact(*mp));
  EXPECT_TRUE(p->EqualsExact(*MakePoint(1, 1)));
  EXPECT_FALSE(p->EqualsExact(*MakePoint(1, 2)));
}

TEST(Geometry, EqualsExactCollectionOrderMatters) {
  std::vector<GeomPtr> e1;
  e1.push_back(MakePoint(0, 0));
  e1.push_back(MakePoint(1, 1));
  std::vector<GeomPtr> e2;
  e2.push_back(MakePoint(1, 1));
  e2.push_back(MakePoint(0, 0));
  const auto a = MakeCollection(GeomType::kMultiPoint, std::move(e1));
  const auto b = MakeCollection(GeomType::kMultiPoint, std::move(e2));
  EXPECT_FALSE(a->EqualsExact(*b));
}

TEST(Geometry, MutateCoords) {
  GeomPtr poly = MakePolygon({{{0, 0}, {1, 0}, {1, 1}, {0, 0}}});
  poly->MutateCoords([](const Coord& c) { return Coord{c.x + 10, c.y}; });
  EXPECT_EQ(AsPolygon(*poly).Shell()[1], Coord(11, 0));
}

TEST(Geometry, ForEachBasicFlattensNesting) {
  std::vector<GeomPtr> inner;
  inner.push_back(MakePoint(0, 0));
  std::vector<GeomPtr> outer;
  outer.push_back(MakeCollection(GeomType::kMultiPoint, std::move(inner)));
  outer.push_back(MakeLineString({{0, 0}, {1, 1}}));
  const auto gc =
      MakeCollection(GeomType::kGeometryCollection, std::move(outer));
  const auto basics = FlattenBasic(*gc);
  ASSERT_EQ(basics.size(), 2u);
  EXPECT_EQ(basics[0]->type(), GeomType::kPoint);
  EXPECT_EQ(basics[1]->type(), GeomType::kLineString);
}

TEST(Geometry, TypeNames) {
  EXPECT_STREQ(GeomTypeName(GeomType::kPoint), "POINT");
  EXPECT_STREQ(GeomTypeName(GeomType::kGeometryCollection),
               "GEOMETRYCOLLECTION");
  EXPECT_EQ(TypeDimension(GeomType::kMultiPolygon), 2);
  EXPECT_EQ(TypeDimension(GeomType::kGeometryCollection), -1);
  EXPECT_TRUE(IsCollectionType(GeomType::kMultiPoint));
  EXPECT_FALSE(IsCollectionType(GeomType::kPolygon));
}

TEST(Geometry, MultiElementTypes) {
  EXPECT_EQ(*MultiElementType(GeomType::kMultiPoint), GeomType::kPoint);
  EXPECT_EQ(*MultiElementType(GeomType::kMultiLineString),
            GeomType::kLineString);
  EXPECT_EQ(*MultiElementType(GeomType::kMultiPolygon), GeomType::kPolygon);
  EXPECT_FALSE(MultiElementType(GeomType::kGeometryCollection).has_value());
}

TEST(Geometry, MakeEmptyAllTypes) {
  for (GeomType t :
       {GeomType::kPoint, GeomType::kLineString, GeomType::kPolygon,
        GeomType::kMultiPoint, GeomType::kMultiLineString,
        GeomType::kMultiPolygon, GeomType::kGeometryCollection}) {
    GeomPtr g = MakeEmpty(t);
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->type(), t);
    EXPECT_TRUE(g->IsEmpty());
    EXPECT_EQ(g->Dimension(), -1);
  }
}

}  // namespace
}  // namespace spatter::geom
