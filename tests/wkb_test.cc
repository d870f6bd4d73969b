// WKB reader/writer tests: round trips over all types, hex form, byte
// order, and malformed-input rejection.
#include "geom/wkb.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "fuzz/generator.h"
#include "geom/wkt_reader.h"

namespace spatter::geom {
namespace {

GeomPtr FromWkt(const std::string& wkt) {
  auto r = ReadWkt(wkt);
  EXPECT_TRUE(r.ok()) << wkt;
  return r.Take();
}

class WkbRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(WkbRoundTrip, BinaryAndHexPreserveStructure) {
  GeomPtr g = FromWkt(GetParam());
  const auto bytes = WriteWkb(*g);
  auto back = ReadWkb(bytes);
  ASSERT_TRUE(back.ok()) << GetParam() << ": " << back.status().ToString();
  EXPECT_TRUE(g->EqualsExact(*back.value())) << GetParam();

  auto hex_back = ReadWkbHex(WriteWkbHex(*g));
  ASSERT_TRUE(hex_back.ok());
  EXPECT_TRUE(g->EqualsExact(*hex_back.value()));
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, WkbRoundTrip,
    ::testing::Values(
        "POINT(1 2)", "POINT(-1.5 2.25)", "POINT EMPTY",
        "LINESTRING(0 0,1 1,2 0)", "LINESTRING EMPTY",
        "POLYGON((0 0,10 0,10 10,0 10,0 0))",
        "POLYGON((0 0,10 0,10 10,0 10,0 0),(2 2,4 2,4 4,2 4,2 2))",
        "POLYGON EMPTY", "MULTIPOINT((1 2),(3 4))", "MULTIPOINT EMPTY",
        "MULTILINESTRING((0 0,1 1),(2 2,3 3))",
        "MULTIPOLYGON(((0 0,5 0,0 5,0 0)))",
        "GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0))",
        "GEOMETRYCOLLECTION EMPTY",
        "GEOMETRYCOLLECTION(GEOMETRYCOLLECTION(POINT(1 1)))"));

TEST(Wkb, KnownEncodingOfPoint) {
  // POINT(1 2), little-endian: 01 01000000 x=1.0 y=2.0.
  const auto hex = WriteWkbHex(*FromWkt("POINT(1 2)"));
  EXPECT_EQ(hex, "0101000000000000000000F03F0000000000000040");
}

TEST(Wkb, BigEndianInputAccepted) {
  // Same point, big-endian: 00 00000001 3FF0.. 4000..
  auto g = ReadWkbHex("00000000013FF00000000000004000000000000000");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value()->ToWkt(), "POINT(1 2)");
}

TEST(Wkb, RejectsMalformedInput) {
  EXPECT_FALSE(ReadWkb({}).ok());
  EXPECT_FALSE(ReadWkb({0x02}).ok());          // bad byte order
  EXPECT_FALSE(ReadWkb({0x01, 0x01}).ok());    // truncated type
  EXPECT_FALSE(ReadWkbHex("0101").ok());       // truncated payload
  EXPECT_FALSE(ReadWkbHex("ZZ").ok());         // bad hex
  EXPECT_FALSE(ReadWkbHex("010").ok());        // odd length
  // Unknown geometry type 99.
  EXPECT_FALSE(ReadWkbHex("0163000000").ok());
  // Implausible element count (0xFFFFFFFF).
  EXPECT_FALSE(ReadWkbHex("0104000000FFFFFFFF").ok());
  // Trailing garbage after a valid point.
  EXPECT_FALSE(
      ReadWkbHex("0101000000000000000000F03F0000000000000040FF").ok());
}

// Little-endian WKB of a point (type 1) or a linestring (type 2) with the
// given coordinates, written byte by byte so any double can be placed.
std::vector<uint8_t> LittleEndianWkb(uint32_t type,
                                     const std::vector<double>& xy) {
  std::vector<uint8_t> out = {0x01};
  auto u32 = [&out](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  u32(type);
  if (type == 2) u32(static_cast<uint32_t>(xy.size() / 2));
  for (double d : xy) {
    uint64_t bits;
    std::memcpy(&bits, &d, 8);
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<uint8_t>(bits >> (8 * i)));
    }
  }
  return out;
}

TEST(Wkb, RejectsNonFiniteCoordinates) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {nan, inf, -inf}) {
    EXPECT_FALSE(ReadWkb(LittleEndianWkb(2, {0, 0, bad, 1})).ok()) << bad;
    EXPECT_FALSE(ReadWkb(LittleEndianWkb(2, {0, 0, 1, bad})).ok()) << bad;
    EXPECT_FALSE(ReadWkb(LittleEndianWkb(1, {bad, 1})).ok()) << bad;
    EXPECT_FALSE(ReadWkb(LittleEndianWkb(1, {1, bad})).ok()) << bad;
  }
  EXPECT_FALSE(ReadWkb(LittleEndianWkb(1, {inf, inf})).ok());
  // POINT EMPTY's form, NaN for both x and y, stays accepted.
  auto empty = ReadWkb(LittleEndianWkb(1, {nan, nan}));
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty.value()->ToWkt(), "POINT EMPTY");
}

TEST(Wkb, AcceptedInputsReachAFixedPoint) {
  // decode -> encode -> decode gives back the first encoding.
  for (const auto& bytes :
       {LittleEndianWkb(1, {1.7976931348623157e308, -4.9e-324}),
        LittleEndianWkb(2, {0, -0.0, 1e300, 2}),
        LittleEndianWkb(1, {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::quiet_NaN()})}) {
    auto first = ReadWkb(bytes);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    const std::vector<uint8_t> encoded = WriteWkb(*first.value());
    auto second = ReadWkb(encoded);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(WriteWkb(*second.value()), encoded);
    EXPECT_TRUE(first.value()->EqualsExact(*second.value()));
  }
}

TEST(Wkb, MultiElementTypeEnforced) {
  // MULTIPOINT whose element claims to be a LINESTRING.
  std::vector<uint8_t> bytes = WriteWkb(*FromWkt("MULTIPOINT((1 2))"));
  // Patch the inner element's type code (offset: 1+4+4 header, then 1 byte
  // order + type at +1).
  bytes[1 + 4 + 4 + 1] = 0x02;
  EXPECT_FALSE(ReadWkb(bytes).ok());
}

TEST(Wkb, RandomGeometryRoundTripProperty) {
  engine::Engine e(engine::Dialect::kPostgis, false);
  Rng rng(31337);
  fuzz::GeneratorConfig config;
  fuzz::GeometryAwareGenerator gen(config, &rng, &e);
  for (int i = 0; i < 200; ++i) {
    const GeomPtr g = gen.RandomShape();
    auto back = ReadWkb(WriteWkb(*g));
    ASSERT_TRUE(back.ok()) << g->ToWkt();
    EXPECT_TRUE(g->EqualsExact(*back.value())) << g->ToWkt();
  }
}

}  // namespace
}  // namespace spatter::geom
