// WKT reader/writer tests: round trips, empties, nesting, error handling.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "geom/wkb.h"
#include "geom/wkt_reader.h"
#include "geom/wkt_writer.h"

namespace spatter::geom {
namespace {

geom::GeomPtr MustRead(const std::string& wkt) {
  auto r = ReadWkt(wkt);
  EXPECT_TRUE(r.ok()) << wkt << " -> " << r.status().ToString();
  return r.ok() ? r.Take() : nullptr;
}

// Inputs already in canonical output form must survive a round trip.
class WktRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(WktRoundTrip, ParsesAndPrintsBack) {
  const std::string wkt = GetParam();
  GeomPtr g = MustRead(wkt);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->ToWkt(), wkt);
  // And the printed form re-parses to a structurally equal geometry.
  GeomPtr again = MustRead(g->ToWkt());
  ASSERT_NE(again, nullptr);
  EXPECT_TRUE(g->EqualsExact(*again));
}

INSTANTIATE_TEST_SUITE_P(
    Canonical, WktRoundTrip,
    ::testing::Values(
        "POINT(1 2)", "POINT(-1.5 2.25)", "POINT EMPTY",
        "LINESTRING(0 0,1 1,2 0)", "LINESTRING EMPTY",
        "POLYGON((0 0,10 0,10 10,0 10,0 0))",
        "POLYGON((0 0,10 0,10 10,0 10,0 0),(2 2,4 2,4 4,2 4,2 2))",
        "POLYGON EMPTY", "MULTIPOINT((1 2),(3 4))", "MULTIPOINT EMPTY",
        "MULTIPOINT(EMPTY,(1 1))",
        "MULTILINESTRING((0 0,1 1),(2 2,3 3))",
        "MULTILINESTRING((0 2,1 0,3 1,3 1,5 0),EMPTY)",
        "MULTIPOLYGON(((0 0,5 0,0 5,0 0)))", "MULTIPOLYGON EMPTY",
        "GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0))",
        "GEOMETRYCOLLECTION EMPTY",
        "GEOMETRYCOLLECTION(MULTIPOINT((0 0),(3 1)))",
        "GEOMETRYCOLLECTION(GEOMETRYCOLLECTION(POINT(1 1)))",
        "GEOMETRYCOLLECTION(POINT EMPTY)"));

TEST(WktReader, AcceptsFlexibleWhitespaceAndCase) {
  GeomPtr a = MustRead("  point ( 1   2 ) ");
  EXPECT_EQ(a->ToWkt(), "POINT(1 2)");
  GeomPtr b = MustRead("LineString(0 0, 1 1)");
  EXPECT_EQ(b->ToWkt(), "LINESTRING(0 0,1 1)");
  GeomPtr c = MustRead("multipoint(1 2, 3 4)");  // bare form
  EXPECT_EQ(c->ToWkt(), "MULTIPOINT((1 2),(3 4))");
  GeomPtr d = MustRead("POINT Empty");
  EXPECT_TRUE(d->IsEmpty());
}

TEST(WktReader, ScientificAndSignedNumbers) {
  GeomPtr g = MustRead("POINT(1e2 -2.5E-1)");
  const auto& c = *AsPoint(*g).coord();
  EXPECT_DOUBLE_EQ(c.x, 100.0);
  EXPECT_DOUBLE_EQ(c.y, -0.25);
  GeomPtr h = MustRead("POINT(+3 -4)");
  EXPECT_EQ(*AsPoint(*h).coord(), Coord(3, -4));
}

TEST(WktReader, RejectsMalformedInput) {
  EXPECT_FALSE(ReadWkt("").ok());
  EXPECT_FALSE(ReadWkt("POINT").ok());
  EXPECT_FALSE(ReadWkt("POINT(1)").ok());
  EXPECT_FALSE(ReadWkt("POINT(1 2").ok());
  EXPECT_FALSE(ReadWkt("POINT(1 2) garbage").ok());
  EXPECT_FALSE(ReadWkt("CIRCLE(0 0, 5)").ok());
  EXPECT_FALSE(ReadWkt("LINESTRING((0 0),(1 1))").ok());
  EXPECT_FALSE(ReadWkt("POLYGON(0 0,1 1,2 2)").ok());
  EXPECT_FALSE(ReadWkt("GEOMETRYCOLLECTION(POINT(0 0)").ok());
  EXPECT_FALSE(ReadWkt("POINT(a b)").ok());
}

TEST(WktReader, RejectsNonFiniteCoordinates) {
  // strtod overflows these to +-inf; the writer would print `inf`, which
  // the reader rejects, so they must be rejected on the way in.
  for (const char* wkt :
       {"POINT(1e309 2)", "POINT(-101e308 2)", "POINT(2 1e400)",
        "LINESTRING(0 0,1e309 1)", "POLYGON((0 0,1 0,1 -1e309,0 0))"}) {
    auto r = ReadWkt(wkt);
    EXPECT_FALSE(r.ok()) << wkt << " -> " << r.value()->ToWkt();
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << wkt;
    }
  }
}

TEST(WktReader, AcceptedInputsReachAFixedPoint) {
  // decode -> encode -> decode gives back the first encoding, including
  // at the edges of the double range.
  for (const char* wkt :
       {"POINT(1.7976931348623157e308 -1.7976931348623157e308)",
        "POINT(4.9e-324 -1e-400)", "POINT(-0 0.1)", "LINESTRING(1e300 2,3 4)",
        "GEOMETRYCOLLECTION(POINT EMPTY,MULTIPOINT((1e-5 2e22)))"}) {
    GeomPtr first = MustRead(wkt);
    const std::string encoded = first->ToWkt();
    GeomPtr second = MustRead(encoded);
    EXPECT_EQ(second->ToWkt(), encoded) << wkt;
    EXPECT_TRUE(first->EqualsExact(*second)) << wkt;
  }
}

TEST(WktReader, ErrorsCarryInvalidArgumentCode) {
  auto r = ReadWkt("NOTATYPE(1 2)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(WktWriter, EmptyElementsInsideCollections) {
  GeomPtr g = MustRead("GEOMETRYCOLLECTION(POINT EMPTY,LINESTRING(0 0,1 1))");
  EXPECT_EQ(g->ToWkt(),
            "GEOMETRYCOLLECTION(POINT EMPTY,LINESTRING(0 0,1 1))");
}

TEST(WktWriter, NegativeZeroNormalized) {
  Point p(-0.0, 0.0);
  EXPECT_EQ(p.ToWkt(), "POINT(0 0)");
}

TEST(WktWriter, FractionalCoordinatesShortest) {
  Point p(0.1, -2.5);
  EXPECT_EQ(p.ToWkt(), "POINT(0.1 -2.5)");
}

TEST(WktReader, EscapedQuoteInsideStringNotRelevantButParserRobust) {
  // The WKT reader itself never sees SQL quoting; double-check plain text.
  GeomPtr g = MustRead("MULTIPOLYGON(((0 0,5 0,0 5,0 0)),EMPTY)");
  const auto& coll = AsCollection(*g);
  ASSERT_EQ(coll.NumElements(), 2u);
  EXPECT_TRUE(coll.ElementAt(1).IsEmpty());
}

TEST(WktReader, DeepNesting) {
  GeomPtr g = MustRead(
      "GEOMETRYCOLLECTION(GEOMETRYCOLLECTION(GEOMETRYCOLLECTION(POINT(1 "
      "1))))");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->NumCoords(), 1u);
}

TEST(WktReader, PaperListingGeometries) {
  // The exact strings from the paper's listings must parse.
  for (const char* wkt : {
           "LINESTRING(0 1,2 0)",
           "POINT(0.2 0.9)",
           "LINESTRING(1 1,0 0)",
           "POINT(0.9 0.9)",
           "MULTILINESTRING((990 280,100 20))",
           "GEOMETRYCOLLECTION(MULTILINESTRING((990 280, 100 20)),"
           "POLYGON((360 60,850 620,850 420,360 60)))",
           "POLYGON((614 445,30 26,80 30,614 445))",
           "MULTIPOINT((1 0),(0 0))",
           "MULTIPOINT((-2 0),EMPTY)",
           "GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0))",
           "GEOMETRYCOLLECTION(MULTIPOINT((0 0),(3 1)))",
           "MULTIPOLYGON(((0 0,5 0,0 5,0 0)))",
           "POINT EMPTY",
           "LINESTRING(0 0,0 1,1 0,0 0)",
           "POLYGON((0 0,0 1,1 0,0 0))",
       }) {
    EXPECT_TRUE(ReadWkt(wkt).ok()) << wkt;
  }
}


// --- NormalizeForWkt ----------------------------------------------------------
//
// The typed SDB2 load inserts NormalizeForWkt's output in place of
// ReadWkt(WriteWkt(g)), so the two must agree bit for bit wherever it
// returns true. WKB carries each coordinate's bits, so -0 and +0 differ.

std::string Bits(const Geometry& g) { return WriteWkbHex(g); }

// What the statement path stores for `g`: its printed WKT read back.
Result<GeomPtr> RoundTrip(const Geometry& g) { return ReadWkt(g.ToWkt()); }

template <typename... Parts>
std::vector<GeomPtr> Elements(Parts... parts) {
  std::vector<GeomPtr> out;
  (out.push_back(std::move(parts)), ...);
  return out;
}

TEST(WktNormalize, AcceptedGeometriesEqualTheirRoundTrip) {
  const char* kRows[] = {
      "POINT(-0 -0)",
      "POINT EMPTY",
      "LINESTRING(-0 1,2 -0,1.5e-300 -7.25)",
      "LINESTRING EMPTY",
      "POLYGON((0 0,-0 4,4 4,0 0),(1 1,2 1,1 2,1 1))",
      "POLYGON EMPTY",
      "MULTIPOINT((-0 -0),EMPTY,(1e300 -2))",
      "MULTILINESTRING((0 0,1 1),EMPTY)",
      "MULTIPOLYGON(((0 0,1 0,0 1,0 0)),EMPTY)",
      "MULTIPOLYGON EMPTY",
      "GEOMETRYCOLLECTION(POINT(-0 3),MULTIPOINT EMPTY,"
      "GEOMETRYCOLLECTION(POLYGON EMPTY,LINESTRING(0 -0,1 1)))",
      "GEOMETRYCOLLECTION EMPTY",
  };
  for (const char* wkt : kRows) {
    SCOPED_TRACE(wkt);
    GeomPtr g = MustRead(wkt);
    ASSERT_NE(g, nullptr);
    // Scaled by -1, so every +0 turns -0 and back.
    for (double sign : {1.0, -1.0}) {
      GeomPtr h = g->Clone();
      h->MutateCoords([sign](const Coord& c) {
        return Coord{sign * c.x, sign * c.y};
      });
      Result<GeomPtr> want = RoundTrip(*h);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(NormalizeForWkt(h.get()));
      EXPECT_EQ(Bits(*h), Bits(*want.value()));
    }
  }
}

TEST(WktNormalize, RefusesWhatTheRoundTripChangesOrRejects) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Polygon::Ring shell = {{0, 0}, {4, 0}, {4, 4}, {0, 0}};
  const Polygon::Ring hole = {{1, 1}, {2, 1}, {1, 2}, {1, 1}};
  std::vector<std::pair<std::string, GeomPtr>> cases;
  cases.emplace_back("inf coordinate", MakePoint(inf, 0));
  cases.emplace_back("nan coordinate", MakeLineString({{0, 0}, {nan, 1}}));
  cases.emplace_back("-inf in a hole",
                     MakePolygon({shell, {{1, 1}, {-inf, 1}, {1, 1}}}));
  cases.emplace_back("empty shell with a hole", MakePolygon({{}, hole}));
  cases.emplace_back("empty shell alone", MakePolygon({{}}));
  cases.emplace_back("empty hole", MakePolygon({shell, {}}));
  cases.emplace_back(
      "line in a multipoint",
      MakeCollection(GeomType::kMultiPoint,
                     Elements(MakePoint(1, 1), MakeLineString({}))));
  cases.emplace_back(
      "point in a multilinestring",
      MakeCollection(GeomType::kMultiLineString, Elements(MakePoint(1, 1))));
  cases.emplace_back(
      "empty hole, nested",
      MakeCollection(GeomType::kGeometryCollection,
                     Elements(MakeCollection(GeomType::kMultiPolygon,
                                             Elements(MakePolygon({shell, {}}))))));
  for (auto& [name, g] : cases) {
    SCOPED_TRACE(name);
    const Result<GeomPtr> printed = RoundTrip(*g);
    EXPECT_FALSE(NormalizeForWkt(g.get()));
    // The rule is needed: the statement path rejects the row or stores
    // something else.
    if (printed.ok()) {
      EXPECT_NE(Bits(*printed.value()), Bits(*g));
    }
  }
}
}  // namespace
}  // namespace spatter::geom
