// Deterministic mutational fuzzing of the decoders of bytes from disk or a
// peer: the geometry decoders ReadWkt and ReadWkb, the corpus record codec
// (TestCaseCodec::Decode) and the fleet wire (fleet::DecodeFrame). Fixed
// seeds, fixed input counts, AFL-style operators (bit flips, byte sets,
// truncation, range deletion, chunk duplication, splices and dictionary
// tokens; https://lcamtuf.coredump.cx/afl/technical_details.txt). Every
// accepted input must reach a decode -> encode -> decode fixed point, and
// every accepted WKT must carry only finite coordinates. Under the
// ASan+UBSan build the same run also checks that no input trips a
// sanitizer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "corpus/codec.h"
#include "engine/engine.h"
#include "fleet/wire.h"
#include "fuzz/aei.h"
#include "fuzz/generator.h"
#include "geom/wkb.h"
#include "geom/wkt_reader.h"
#include "geom/wkt_writer.h"

namespace spatter::geom {
namespace {

using Bytes = std::vector<uint8_t>;

// Generated databases of all four dialects, as WKT rows.
std::vector<std::string> GeneratedWkt() {
  std::vector<std::string> rows;
  for (int d = 0; d < engine::kNumDialects; ++d) {
    engine::Engine e(static_cast<engine::Dialect>(d), false);
    fuzz::GeneratorConfig config;
    config.num_geometries = 24;
    Rng rng(100 + static_cast<uint64_t>(d));
    fuzz::GeometryAwareGenerator gen(config, &rng, &e);
    for (const fuzz::TableSpec& table : gen.Generate(nullptr).tables) {
      rows.insert(rows.end(), table.rows.begin(), table.rows.end());
    }
  }
  return rows;
}

// One WKT per rule the typed SDB2 load keeps to ReadWkt(WriteWkt(g)): -0,
// overflow to inf, the printed forms of an empty shell with holes, an
// empty hole and a wrongly typed MULTI* element, unparsable WKT and a quote.
const char* const kRuleSeeds[] = {
    "POINT(-0 -0)",
    "LINESTRING(1e309 1,2 2)",
    "POLYGON EMPTY",
    "POLYGON((0 0,4 0,4 4,0 0),())",
    "MULTIPOINT((0 0,1 1))",
    "POINT(1",
    "POINT('1 1)",
};

const char* const kTokens[] = {"nan", "inf", "-0", "1e309", "EMPTY",
                               "(",   ")",   ",",  "0x10"};

Bytes ToBytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

// Little-endian bytes of values WKB decoders mishandle: NaN, inf, -0, a
// huge double and element counts.
std::vector<Bytes> BinaryTokens() {
  std::vector<Bytes> out;
  for (double v : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(), -0.0, 1e308}) {
    Bytes b(8);
    std::memcpy(b.data(), &v, 8);
    out.push_back(b);
  }
  for (uint32_t n : {0x10u, 0xFFFFFFFFu, 0u}) {
    Bytes b(4);
    std::memcpy(b.data(), &n, 4);
    out.push_back(b);
  }
  return out;
}

// One AFL-style operator applied to `in`; `seeds` feed splices and
// `tokens` the dictionary.
Bytes Mutate(const Bytes& in, const std::vector<Bytes>& seeds,
             const std::vector<Bytes>& tokens, Rng* rng) {
  Bytes out = in;
  const auto pos = [&](size_t size) {
    return static_cast<size_t>(rng->Below(size + 1));
  };
  switch (rng->Below(7)) {
    case 0:  // bit flip
      if (!out.empty()) out[pos(out.size() - 1)] ^= 1u << rng->Below(8);
      break;
    case 1:  // byte set
      if (!out.empty()) {
        out[pos(out.size() - 1)] = static_cast<uint8_t>(rng->Below(256));
      }
      break;
    case 2:  // truncation
      out.resize(pos(out.size()));
      break;
    case 3: {  // range deletion
      const size_t at = pos(out.size());
      const size_t n = std::min<size_t>(1 + rng->Below(8), out.size() - at);
      out.erase(out.begin() + at, out.begin() + at + n);
      break;
    }
    case 4: {  // chunk duplication
      if (out.empty()) break;
      const size_t from = pos(out.size() - 1);
      const size_t n = std::min<size_t>(1 + rng->Below(16), out.size() - from);
      const Bytes chunk(out.begin() + from, out.begin() + from + n);
      out.insert(out.begin() + pos(out.size()), chunk.begin(), chunk.end());
      break;
    }
    case 5: {  // splice: our prefix, another seed's suffix
      const Bytes& other = seeds[rng->Below(seeds.size())];
      out.resize(pos(out.size()));
      out.insert(out.end(), other.begin() + pos(other.size()), other.end());
      break;
    }
    default: {  // dictionary token, inserted or overwriting
      const Bytes& token = tokens[rng->Below(tokens.size())];
      const size_t at = pos(out.size());
      if (rng->Percent(50)) {
        out.insert(out.begin() + at, token.begin(), token.end());
      } else {
        out.erase(out.begin() + at,
                  out.begin() + std::min(out.size(), at + token.size()));
        out.insert(out.begin() + at, token.begin(), token.end());
      }
      break;
    }
  }
  return out;
}

bool AllFinite(const Geometry& g) {
  bool finite = true;
  GeomPtr copy = g.Clone();
  copy->MutateCoords([&finite](const Coord& c) {
    finite = finite && std::isfinite(c.x) && std::isfinite(c.y);
    return c;
  });
  return finite;
}

// Runs `count` mutants of `seeds` (1-2 stacked operators each) through
// `check`; returns how many `check` accepted.
template <typename Check>
size_t FuzzInputs(const std::vector<Bytes>& seeds,
                  const std::vector<Bytes>& tokens, uint64_t seed,
                  size_t count, Check check) {
  Rng rng(seed);
  size_t accepted = 0;
  for (size_t i = 0; i < count; ++i) {
    Bytes input = seeds[rng.Below(seeds.size())];
    for (uint64_t k = 1 + rng.Below(2); k > 0; --k) {
      input = Mutate(input, seeds, tokens, &rng);
    }
    if (check(input)) ++accepted;
    if (::testing::Test::HasFatalFailure()) break;
  }
  return accepted;
}

TEST(DecoderFuzz, WktAcceptsOnlyFixedPointsWithFiniteCoordinates) {
  std::vector<Bytes> seeds;
  for (const std::string& wkt : GeneratedWkt()) seeds.push_back(ToBytes(wkt));
  for (const char* wkt : kRuleSeeds) seeds.push_back(ToBytes(wkt));
  std::vector<Bytes> tokens;
  for (const char* token : kTokens) tokens.push_back(ToBytes(token));

  const size_t accepted = FuzzInputs(
      seeds, tokens, /*seed=*/0x5eed1, /*count=*/300000, [](const Bytes& in) {
        const std::string text(in.begin(), in.end());
        Result<GeomPtr> g1 = ReadWkt(text);
        if (!g1.ok()) return false;
        EXPECT_TRUE(AllFinite(*g1.value())) << text;
        const std::string t1 = g1.value()->ToWkt();
        Result<GeomPtr> g2 = ReadWkt(t1);
        EXPECT_TRUE(g2.ok()) << text << " printed as " << t1;
        if (!g2.ok()) return true;
        EXPECT_EQ(g2.value()->ToWkt(), t1) << text;
        // The typed SDB2 load's rule: what ReadWkt returns passes
        // NormalizeForWkt and normalizes to its own round trip.
        EXPECT_TRUE(NormalizeForWkt(g1.value().get())) << text;
        EXPECT_EQ(WriteWkbHex(*g1.value()), WriteWkbHex(*g2.value())) << text;
        return true;
      });
  EXPECT_GT(accepted, 1000u);
}

TEST(DecoderFuzz, WkbAcceptsOnlyFixedPoints) {
  std::vector<Bytes> seeds;
  for (const std::string& wkt : GeneratedWkt()) {
    Result<GeomPtr> g = ReadWkt(wkt);
    ASSERT_TRUE(g.ok()) << wkt;
    seeds.push_back(WriteWkb(*g.value()));
  }
  for (const char* wkt : kRuleSeeds) {
    if (Result<GeomPtr> g = ReadWkt(wkt); g.ok()) {
      seeds.push_back(WriteWkb(*g.value()));
    }
  }
  std::vector<Bytes> tokens = BinaryTokens();
  for (const char* token : kTokens) tokens.push_back(ToBytes(token));

  const size_t accepted = FuzzInputs(
      seeds, tokens, /*seed=*/0x5eed2, /*count=*/300000, [](const Bytes& in) {
        Result<GeomPtr> g1 = ReadWkb(in);
        if (!g1.ok()) return false;
        const Bytes b1 = WriteWkb(*g1.value());
        Result<GeomPtr> g2 = ReadWkb(b1);
        EXPECT_TRUE(g2.ok()) << WriteWkbHex(*g1.value());
        if (!g2.ok()) return true;
        EXPECT_EQ(WriteWkb(*g2.value()), b1) << WriteWkbHex(*g1.value());
        return true;
      });
  EXPECT_GT(accepted, 1000u);
}

// Corpus entries and reproducers built from generated databases of all
// four dialects, with queries, integer transforms, coverage keys and fault
// ids, encoded.
std::vector<Bytes> GeneratedRecords() {
  std::vector<Bytes> out;
  for (int d = 0; d < engine::kNumDialects; ++d) {
    engine::Engine e(static_cast<engine::Dialect>(d), false);
    fuzz::GeneratorConfig config;
    config.num_geometries = 6;
    Rng rng(200 + static_cast<uint64_t>(d));
    fuzz::GeometryAwareGenerator gen(config, &rng, &e);
    for (int i = 0; i < 3; ++i) {
      corpus::TestCaseRecord rec;
      rec.dialect = static_cast<engine::Dialect>(d);
      rec.seed = rng.Next();
      rec.iteration = static_cast<uint64_t>(i);
      rec.sdb = gen.Generate(nullptr);
      rec.sdb.with_index = i == 1;
      rec.sites = {rng.Next(), rng.Next(), 0, ~uint64_t{0}};
      if (i > 0) {
        rec.kind = corpus::RecordKind::kReproducer;
        rec.has_query = true;
        rec.query = gen.RandomQuery(rec.sdb);
        rec.transform = fuzz::RandomIntegerAffine(&rng);
        rec.oracle = i == 1 ? fuzz::OracleKind::kDifferential
                            : fuzz::OracleKind::kEet;
        rec.fault_ids = {0, static_cast<uint32_t>(d) + 3};
      }
      Result<Bytes> bytes = corpus::TestCaseCodec::Encode(rec);
      EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
      if (bytes.ok()) out.push_back(bytes.Take());
    }
  }
  return out;
}

// One line of every frame type EncodeFrame prints, ENTRY and BUG carrying
// an encoded record.
std::vector<Bytes> WireFrames(const Bytes& record) {
  using fleet::Frame;
  using fleet::FrameType;
  std::vector<Frame> frames(12);
  frames[0].type = FrameType::kInflight;
  frames[0].dialect = 2;
  frames[0].slice = 5;
  frames[0].iteration = 1234567;
  frames[1].type = FrameType::kSliceDone;
  frames[1].dialect = 1;
  frames[1].slice = 6;
  frames[2].type = FrameType::kSliceProgress;
  frames[2].dialect = 3;
  frames[2].slice = 3;
  frames[2].completed = 98;
  frames[3].type = FrameType::kCov;
  frames[3].elapsed = 1.25;
  frames[3].iterations = 42;
  frames[3].queries = 4200;
  frames[3].site_keys = {0xdeadbeefULL, 0x1ULL, 0xffffffffffffffffULL};
  frames[4].type = FrameType::kEntry;
  frames[4].payload = record;
  frames[5].type = FrameType::kBug;
  frames[5].query_index = 17;
  frames[5].is_crash = true;
  frames[5].oracle = static_cast<uint64_t>(fuzz::OracleKind::kIndex);
  frames[5].elapsed = 0.5;
  frames[5].detail = "count 3 vs 4, with spaces\tand tabs";
  frames[5].payload = record;
  frames[6].type = FrameType::kDone;
  frames[6].iterations = 10;
  frames[6].queries = 1000;
  frames[6].checks = 1000;
  frames[6].busy_seconds = 2.5;
  frames[6].engine_seconds = 1e24;
  frames[7].type = FrameType::kStats;
  frames[7].elapsed = 2.75;
  frames[7].stats.counters["campaign.iterations"] = 1234;
  frames[7].stats.gauges["corpus.size"] = -3;
  obs::HistogramData h;
  h.count = 2;
  h.sum_ns = 3000;
  h.buckets.assign(obs::LatencyHistogram::kNumBuckets, 0);
  h.buckets[10] = 2;
  frames[7].stats.histograms["engine.statement"] = h;
  frames[8].type = FrameType::kNetHello;
  frames[8].proto = fleet::kNetProtocolVersion;
  frames[8].pid = 4242;
  frames[9].type = FrameType::kAssign;
  frames[9].worker = 1;
  frames[9].payload = ToBytes("spatter-checkpoint-v1\nend 0\n");
  frames[10].type = FrameType::kTune;
  frames[10].mutate_pct = 35;
  frames[11].type = FrameType::kBye;
  std::vector<Bytes> out;
  for (const Frame& frame : frames) {
    out.push_back(ToBytes(fleet::EncodeFrame(frame)));
  }
  return out;
}

TEST(DecoderFuzz, CodecAcceptsOnlyFixedPoints) {
  const std::vector<Bytes> seeds = GeneratedRecords();
  ASSERT_EQ(seeds.size(), 12u);
  std::vector<Bytes> tokens = BinaryTokens();
  for (const char* token : kTokens) tokens.push_back(ToBytes(token));

  const size_t accepted = FuzzInputs(
      seeds, tokens, /*seed=*/0x5eed3, /*count=*/60000, [](const Bytes& in) {
        Result<corpus::TestCaseRecord> r1 = corpus::TestCaseCodec::Decode(in);
        if (!r1.ok()) return false;
        Result<Bytes> e1 = corpus::TestCaseCodec::Encode(r1.value());
        EXPECT_TRUE(e1.ok()) << e1.status().ToString();
        if (!e1.ok()) return true;
        Result<corpus::TestCaseRecord> r2 =
            corpus::TestCaseCodec::Decode(e1.value());
        EXPECT_TRUE(r2.ok()) << r2.status().ToString();
        if (!r2.ok()) return true;
        Result<Bytes> e2 = corpus::TestCaseCodec::Encode(r2.value());
        EXPECT_TRUE(e2.ok() && e2.value() == e1.value());
        return true;
      });
  EXPECT_GT(accepted, 1000u);
}

TEST(DecoderFuzz, WireAcceptsOnlyFixedPoints) {
  const std::vector<Bytes> records = GeneratedRecords();
  ASSERT_FALSE(records.empty());
  const std::vector<Bytes> seeds = WireFrames(records.front());
  std::vector<Bytes> tokens;
  for (const char* token :
       {"SPTW1", "BUG", "COV", "STATS", "ASSIGN", " ", "-", ",", "0", "1e5",
        "-0", "nan", "inf", "1e309", "0x10", "ff", "\n", "18446744073709551616"}) {
    tokens.push_back(ToBytes(token));
  }

  const size_t accepted = FuzzInputs(
      seeds, tokens, /*seed=*/0x5eed4, /*count=*/200000, [](const Bytes& in) {
        const std::string line(in.begin(), in.end());
        Result<fleet::Frame> f1 = fleet::DecodeFrame(line);
        if (!f1.ok()) return false;
        const std::string l1 = fleet::EncodeFrame(f1.value());
        Result<fleet::Frame> f2 = fleet::DecodeFrame(l1);
        EXPECT_TRUE(f2.ok()) << line << " printed as " << l1;
        if (!f2.ok()) return true;
        EXPECT_EQ(fleet::EncodeFrame(f2.value()), l1) << line;
        return true;
      });
  EXPECT_GT(accepted, 1000u);
}

}  // namespace
}  // namespace spatter::geom
