// DE-9IM relate computer tests: hand-derived matrices for the classic
// configurations, named predicate semantics, empty handling, and mixed
// collections (fault-free; injected-bug behaviour is tested in
// faults_test.cc).
#include "relate/relate.h"

#include <gtest/gtest.h>

#include "geom/wkt_reader.h"
#include "relate/named_predicates.h"
#include "relate/point_locator.h"
#include "relate/prepared.h"

namespace spatter::relate {
namespace {

geom::GeomPtr Read(const std::string& wkt) {
  auto r = geom::ReadWkt(wkt);
  EXPECT_TRUE(r.ok()) << wkt << ": " << r.status().ToString();
  return r.Take();
}

std::string Code(const std::string& a, const std::string& b) {
  const auto ga = Read(a);
  const auto gb = Read(b);
  auto im = Relate(*ga, *gb);
  EXPECT_TRUE(im.ok()) << a << " vs " << b;
  return im.ok() ? im.value().Code() : "ERROR";
}

struct RelateCase {
  const char* a;
  const char* b;
  const char* expected;
};

class RelateCodes : public ::testing::TestWithParam<RelateCase> {};

TEST_P(RelateCodes, MatchesHandDerivedMatrix) {
  const RelateCase& c = GetParam();
  EXPECT_EQ(Code(c.a, c.b), c.expected) << c.a << " vs " << c.b;
}

constexpr const char* kSquare = "POLYGON((0 0,10 0,10 10,0 10,0 0))";

INSTANTIATE_TEST_SUITE_P(
    PointCases, RelateCodes,
    ::testing::Values(
        RelateCase{"POINT(5 5)", kSquare, "0FFFFF212"},
        RelateCase{"POINT(0 5)", kSquare, "F0FFFF212"},
        RelateCase{"POINT(20 20)", kSquare, "FF0FFF212"},
        RelateCase{"POINT(1 1)", "POINT(1 1)", "0FFFFFFF2"},
        RelateCase{"POINT(1 1)", "POINT(2 2)", "FF0FFF0F2"},
        RelateCase{"POINT(1 1)", "MULTIPOINT((1 1),(2 2))", "0FFFFF0F2"},
        // Point on a line's interior and endpoint.
        RelateCase{"POINT(1 0)", "LINESTRING(0 0,2 0)", "0FFFFF102"},
        RelateCase{"POINT(0 0)", "LINESTRING(0 0,2 0)", "F0FFFF102"}));

INSTANTIATE_TEST_SUITE_P(
    AreaAreaCases, RelateCodes,
    ::testing::Values(
        // Equal polygons.
        RelateCase{kSquare, kSquare, "2FFF1FFF2"},
        // Overlapping squares.
        RelateCase{kSquare, "POLYGON((5 5,15 5,15 15,5 15,5 5))",
                   "212101212"},
        // Edge-touching squares.
        RelateCase{kSquare, "POLYGON((10 0,20 0,20 10,10 10,10 0))",
                   "FF2F11212"},
        // Corner-touching squares.
        RelateCase{kSquare, "POLYGON((10 10,20 10,20 20,10 20,10 10))",
                   "FF2F01212"},
        // Strict containment.
        RelateCase{kSquare, "POLYGON((2 2,8 2,8 8,2 8,2 2))", "212FF1FF2"},
        // Disjoint squares.
        RelateCase{kSquare, "POLYGON((20 20,30 20,30 30,20 30,20 20))",
                   "FF2FF1212"}));

INSTANTIATE_TEST_SUITE_P(
    LineAreaCases, RelateCodes,
    ::testing::Values(
        // Line crossing through the square.
        RelateCase{"LINESTRING(-5 5,15 5)", kSquare, "101FF0212"},
        // Line strictly inside.
        RelateCase{"LINESTRING(2 2,8 8)", kSquare, "1FF0FF212"},
        // Line along the boundary (the ring of the square).
        RelateCase{"LINESTRING(0 0,10 0)", kSquare, "F1FF0F212"},
        // Closed ring geometry versus the polygon it bounds (Listing 9
        // shapes).
        RelateCase{"LINESTRING(0 0,0 1,1 0,0 0)",
                   "POLYGON((0 0,0 1,1 0,0 0))", "F1FFFF2F2"}));

INSTANTIATE_TEST_SUITE_P(
    LineLineCases, RelateCodes,
    ::testing::Values(
        // Proper crossing.
        RelateCase{"LINESTRING(0 0,2 2)", "LINESTRING(0 2,2 0)",
                   "0F1FF0102"},
        // Shared endpoint only.
        RelateCase{"LINESTRING(0 0,1 1)", "LINESTRING(1 1,2 0)",
                   "FF1F00102"},
        // Identical lines.
        RelateCase{"LINESTRING(0 0,1 1)", "LINESTRING(0 0,1 1)",
                   "1FFF0FFF2"},
        // Reversed identical lines are topologically equal too.
        RelateCase{"LINESTRING(0 0,1 1)", "LINESTRING(1 1,0 0)",
                   "1FFF0FFF2"},
        // Partial collinear overlap.
        RelateCase{"LINESTRING(0 0,2 0)", "LINESTRING(1 0,3 0)",
                   "1010F0102"},
        // T-junction: endpoint of B interior to A.
        RelateCase{"LINESTRING(0 0,4 0)", "LINESTRING(2 0,2 3)",
                   "F01FF0102"},
        // Disjoint lines.
        RelateCase{"LINESTRING(0 0,1 0)", "LINESTRING(0 1,1 1)",
                   "FF1FF0102"}));

INSTANTIATE_TEST_SUITE_P(
    EmptyCases, RelateCodes,
    ::testing::Values(
        RelateCase{"POINT EMPTY", "POINT(1 1)", "FFFFFF0F2"},
        RelateCase{"POINT(1 1)", "POINT EMPTY", "FF0FFFFF2"},
        RelateCase{"POINT EMPTY", "POINT EMPTY", "FFFFFFFF2"},
        RelateCase{"LINESTRING EMPTY", kSquare, "FFFFFF212"},
        RelateCase{kSquare, "GEOMETRYCOLLECTION EMPTY", "FF2FF1FF2"}));

INSTANTIATE_TEST_SUITE_P(
    MixedCollectionCases, RelateCodes,
    ::testing::Values(
        // Paper Listing 6: the point element's interior wins at (0,0).
        RelateCase{"POINT(0 0)",
                   "GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0))",
                   "0FFFFF102"},
        // Element order must not matter under correct semantics.
        RelateCase{"POINT(0 0)",
                   "GEOMETRYCOLLECTION(LINESTRING(0 0,1 0),POINT(0 0))",
                   "0FFFFF102"},
        // MultiLineString mod-2: shared endpoint of two elements is
        // interior.
        RelateCase{"POINT(1 0)",
                   "MULTILINESTRING((0 0,1 0),(1 0,2 0))", "0FFFFF102"}));

TEST(Relate, MatrixIsTransposeOfSwappedArguments) {
  const char* geoms[] = {
      "POINT(5 5)",
      "LINESTRING(-5 5,15 5)",
      kSquare,
      "MULTIPOINT((0 0),(5 5))",
      "GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0))",
  };
  for (const char* a : geoms) {
    for (const char* b : geoms) {
      const auto ga = Read(a);
      const auto gb = Read(b);
      const auto ab = Relate(*ga, *gb).Take();
      const auto ba = Relate(*gb, *ga).Take();
      EXPECT_EQ(ab.Transposed(), ba) << a << " vs " << b;
    }
  }
}

// --- Named predicates ------------------------------------------------------

bool Pred(Result<bool> (*fn)(const geom::Geometry&, const geom::Geometry&,
                             const faults::FaultState*),
          const std::string& a, const std::string& b) {
  const auto ga = Read(a);
  const auto gb = Read(b);
  auto r = fn(*ga, *gb, nullptr);
  EXPECT_TRUE(r.ok());
  return r.ok() && r.value();
}

TEST(NamedPredicates, IntersectsAndDisjointAreComplements) {
  EXPECT_TRUE(Pred(&Intersects, "POINT(5 5)", kSquare));
  EXPECT_FALSE(Pred(&Disjoint, "POINT(5 5)", kSquare));
  EXPECT_FALSE(Pred(&Intersects, "POINT(20 20)", kSquare));
  EXPECT_TRUE(Pred(&Disjoint, "POINT(20 20)", kSquare));
}

TEST(NamedPredicates, WithinContainsConverse) {
  EXPECT_TRUE(Pred(&Within, "POINT(5 5)", kSquare));
  EXPECT_TRUE(Pred(&Contains, kSquare, "POINT(5 5)"));
  // Boundary points are covered but not within/contained.
  EXPECT_FALSE(Pred(&Within, "POINT(0 5)", kSquare));
  EXPECT_FALSE(Pred(&Contains, kSquare, "POINT(0 5)"));
  EXPECT_TRUE(Pred(&Covers, kSquare, "POINT(0 5)"));
  EXPECT_TRUE(Pred(&CoveredBy, "POINT(0 5)", kSquare));
}

TEST(NamedPredicates, PaperListing1CoversScenario) {
  // Listing 1/2: the line covers the point in both representations; a
  // correct engine returns 1 for both databases.
  EXPECT_TRUE(Pred(&Covers, "LINESTRING(0 1,2 0)", "POINT(0.2 0.9)"));
  EXPECT_TRUE(Pred(&Covers, "LINESTRING(1 1,0 0)", "POINT(0.9 0.9)"));
}

TEST(NamedPredicates, CrossesDimensionRules) {
  EXPECT_TRUE(
      Pred(&Crosses, "LINESTRING(0 0,2 2)", "LINESTRING(0 2,2 0)"));
  EXPECT_FALSE(
      Pred(&Crosses, "LINESTRING(0 0,1 1)", "LINESTRING(1 1,2 0)"));
  EXPECT_TRUE(Pred(&Crosses, "LINESTRING(-5 5,15 5)", kSquare));
  EXPECT_TRUE(Pred(&Crosses, kSquare, "LINESTRING(-5 5,15 5)"));
  EXPECT_FALSE(Pred(&Crosses, "LINESTRING(2 2,8 8)", kSquare))
      << "containment is not a crossing";
  EXPECT_FALSE(Pred(&Crosses, kSquare, kSquare));
}

TEST(NamedPredicates, OverlapsRules) {
  EXPECT_TRUE(
      Pred(&Overlaps, kSquare, "POLYGON((5 5,15 5,15 15,5 15,5 5))"));
  EXPECT_FALSE(Pred(&Overlaps, kSquare, kSquare));
  EXPECT_FALSE(Pred(&Overlaps, kSquare, "POLYGON((2 2,8 2,8 8,2 8,2 2))"));
  EXPECT_TRUE(
      Pred(&Overlaps, "LINESTRING(0 0,2 0)", "LINESTRING(1 0,3 0)"));
  EXPECT_FALSE(
      Pred(&Overlaps, "LINESTRING(0 0,2 2)", "LINESTRING(0 2,2 0)"))
      << "crossing lines do not overlap (0-dim intersection)";
  EXPECT_FALSE(Pred(&Overlaps, "POINT(5 5)", kSquare))
      << "different dimensions never overlap";
}

TEST(NamedPredicates, TouchesRules) {
  EXPECT_TRUE(
      Pred(&Touches, kSquare, "POLYGON((10 0,20 0,20 10,10 10,10 0))"));
  EXPECT_TRUE(
      Pred(&Touches, "LINESTRING(0 0,1 1)", "LINESTRING(1 1,2 0)"));
  EXPECT_TRUE(Pred(&Touches, "POINT(0 5)", kSquare));
  EXPECT_FALSE(Pred(&Touches, "POINT(5 5)", kSquare));
  EXPECT_FALSE(Pred(&Touches, kSquare, kSquare));
}

TEST(NamedPredicates, TopoEqualsIgnoresRepresentation) {
  EXPECT_TRUE(
      Pred(&TopoEquals, "LINESTRING(0 0,2 2)", "LINESTRING(2 2,0 0)"));
  EXPECT_TRUE(Pred(&TopoEquals, "LINESTRING(0 0,2 2)",
                   "LINESTRING(0 0,1 1,2 2)"));
  EXPECT_FALSE(
      Pred(&TopoEquals, "LINESTRING(0 0,2 2)", "LINESTRING(0 0,1 1)"));
  EXPECT_TRUE(Pred(&TopoEquals, kSquare, kSquare));
}

TEST(NamedPredicates, CoversFamilyOnLines) {
  EXPECT_TRUE(
      Pred(&Covers, "LINESTRING(0 0,3 0)", "LINESTRING(1 0,2 0)"));
  EXPECT_TRUE(Pred(&Covers, "LINESTRING(0 0,3 0)", "POINT(0 0)"))
      << "covers includes boundary points, unlike contains";
  EXPECT_FALSE(Pred(&Contains, "LINESTRING(0 0,3 0)", "POINT(0 0)"));
}

TEST(NamedPredicates, RelatePattern) {
  const auto a = Read("POINT(5 5)");
  const auto b = Read(kSquare);
  const IntersectionMatrix im = Relate(*a, *b).Take();
  EXPECT_TRUE(im.Matches("0FFFFF212"));
  EXPECT_TRUE(im.Matches("T*F**F***"));
  EXPECT_FALSE(im.Matches("FF*FF****"));
}

// --- Point locator ---------------------------------------------------------

TEST(PointLocator, Mod2RuleAcrossElements) {
  const auto mls = Read("MULTILINESTRING((0 0,2 0),(1 0,1 1))");
  // T-junction: (1,0) is an endpoint of one element -> boundary (JTS
  // mod-2 semantics).
  EXPECT_EQ(LocatePoint({1, 0}, *mls), Location::kBoundary);
  // (2,0) single endpoint -> boundary; (0.5,0) mid-segment -> interior.
  EXPECT_EQ(LocatePoint({2, 0}, *mls), Location::kBoundary);
  EXPECT_EQ(LocatePoint({0.5, 0}, *mls), Location::kInterior);
}

TEST(PointLocator, ClosedLineHasNoBoundary) {
  const auto ring = Read("LINESTRING(0 0,0 1,1 0,0 0)");
  EXPECT_EQ(LocatePoint({0, 0}, *ring), Location::kInterior);
  EXPECT_EQ(LocatePoint({0, 0.5}, *ring), Location::kInterior);
  EXPECT_EQ(LocatePoint({5, 5}, *ring), Location::kExterior);
}

TEST(PointLocator, ArealPriority) {
  const auto gc = Read(
      "GEOMETRYCOLLECTION(POLYGON((0 0,4 0,4 4,0 4,0 0)),POINT(2 2))");
  EXPECT_EQ(LocatePoint({2, 2}, *gc), Location::kInterior);
  // A point element sitting on the polygon's ring stays boundary.
  const auto gc2 = Read(
      "GEOMETRYCOLLECTION(POLYGON((0 0,4 0,4 4,0 4,0 0)),POINT(0 2))");
  EXPECT_EQ(LocatePoint({0, 2}, *gc2), Location::kBoundary);
}

TEST(PointLocator, ArealHelpers) {
  const auto gc = Read(
      "GEOMETRYCOLLECTION(POLYGON((0 0,4 0,4 4,0 4,0 0)),POINT(9 9))");
  EXPECT_TRUE(PreparedOperand(*gc, 0.0).areal());
  EXPECT_EQ(LocateAreal({2, 2}, *gc), Location::kInterior);
  EXPECT_EQ(LocateAreal({0, 2}, *gc), Location::kBoundary);
  EXPECT_EQ(LocateAreal({9, 9}, *gc), Location::kExterior)
      << "point elements do not contribute to areal location";
  EXPECT_FALSE(PreparedOperand(*Read("LINESTRING(0 0,1 1)"), 0.0).areal());
}

// --- Prepared geometry ------------------------------------------------------

TEST(PreparedGeometry, AgreesWithPlainPredicates) {
  const auto target = Read(kSquare);
  PreparedGeometry prep(*target);
  const char* candidates[] = {
      "POINT(5 5)",          "POINT(0 5)",
      "POINT(20 20)",        "LINESTRING(2 2,8 8)",
      "LINESTRING(-5 5,15 5)", kSquare,
      "POLYGON((2 2,8 2,8 8,2 8,2 2))",
  };
  for (const char* wkt : candidates) {
    const auto c = Read(wkt);
    EXPECT_EQ(prep.Intersects(*c).value(), Intersects(*target, *c).value())
        << wkt;
    EXPECT_EQ(prep.Contains(*c).value(), Contains(*target, *c).value())
        << wkt;
    EXPECT_EQ(prep.Covers(*c).value(), Covers(*target, *c).value()) << wkt;
  }
}

TEST(PreparedGeometry, EnvelopeShortcutSkipsExactEvaluation) {
  const auto target = Read(kSquare);
  PreparedGeometry prep(*target);
  const auto far = Read("POINT(100 100)");
  EXPECT_FALSE(prep.Intersects(*far).value());
  EXPECT_EQ(prep.exact_evaluations(), 0u);
  const auto near = Read("POINT(5 5)");
  EXPECT_TRUE(prep.Intersects(*near).value());
  EXPECT_EQ(prep.exact_evaluations(), 1u);
}

TEST(Relate, NestingDepth) {
  EXPECT_EQ(NestingDepth(*Read("POINT(1 1)")), 0);
  EXPECT_EQ(NestingDepth(*Read("MULTIPOINT((1 1))")), 1);
  EXPECT_EQ(NestingDepth(*Read("GEOMETRYCOLLECTION(MULTIPOINT((1 1)))")), 2);
  EXPECT_EQ(NestingDepth(*Read(
                "GEOMETRYCOLLECTION(GEOMETRYCOLLECTION(MULTIPOINT((1 1))))")),
            3);
}

TEST(Relate, EffectiveDimensionWithoutFaults) {
  EXPECT_EQ(EffectiveDimension(
                *Read("GEOMETRYCOLLECTION(POINT(0 0),POLYGON((0 0,1 0,1 1,0 "
                      "0)))"),
                nullptr),
            2);
}

}  // namespace
}  // namespace spatter::relate
