// Deterministic mutational fuzzing of the decoders of bytes from disk or a
// peer: the geometry decoders ReadWkt and ReadWkb, the corpus record codec
// (TestCaseCodec::Decode), the fleet wire (fleet::DecodeFrame), the SQL
// parser (sql::ParseStatement), the checkpoint codec
// (fleet::DecodeCheckpoint), the metrics text codec
// (MetricsSnapshot::DecodeText) and the status endpoint's request line
// (net::ParseRequestPath). Fixed seeds, fixed input counts, AFL-style
// operators (bit flips, byte sets, truncation, range deletion, chunk
// duplication, splices and dictionary tokens;
// https://lcamtuf.coredump.cx/afl/technical_details.txt). Every accepted
// input must reach a decode -> encode -> decode fixed point, and every
// accepted WKT and SQL statement must carry only finite numbers. Under the
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
#include "common/strings.h"
#include "corpus/codec.h"
#include "eet/transform.h"
#include "engine/engine.h"
#include "fleet/checkpoint.h"
#include "fleet/wire.h"
#include "fuzz/aei.h"
#include "fuzz/campaign.h"
#include "fuzz/generator.h"
#include "geom/wkb.h"
#include "geom/wkt_reader.h"
#include "geom/wkt_writer.h"
#include "net/status_endpoint.h"
#include "obs/metrics.h"
#include "sql/parser.h"

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
// an encoded record and COV a metrics snapshot.
std::vector<Bytes> WireFrames(const Bytes& record) {
  using fleet::Frame;
  using fleet::FrameType;
  std::vector<Frame> frames(9);
  frames[0].type = FrameType::kInflight;
  frames[0].dialect = 2;
  frames[0].slice = 5;
  frames[1].type = FrameType::kSliceProgress;
  frames[1].dialect = 3;
  frames[1].slice = 3;
  frames[1].completed = 98;
  frames[1].queries = 40;
  frames[1].checks = 80;
  frames[1].findings = 3;
  frames[1].busy_seconds = 2.5;
  frames[1].engine_seconds = 1e24;
  frames[2].type = FrameType::kCov;
  frames[2].site_keys = {0xdeadbeefULL, 0x1ULL, 0xffffffffffffffffULL};
  frames[2].metrics.counters["campaign.iterations"] = 1234;
  frames[2].metrics.gauges["corpus.size"] = -3;
  obs::HistogramData h;
  h.count = 2;
  h.sum_ns = 3000;
  h.buckets.assign(obs::LatencyHistogram::kNumBuckets, 0);
  h.buckets[10] = 2;
  frames[2].metrics.histograms["engine.statement"] = h;
  frames[3].type = FrameType::kEntry;
  frames[3].payload = record;
  frames[4].type = FrameType::kBug;
  frames[4].fault = 3;
  frames[4].query_index = 17;
  frames[4].is_crash = true;
  frames[4].detail = "count 3 vs 4, with spaces\tand tabs";
  frames[4].payload = record;
  frames[5].type = FrameType::kDone;
  frames[6].type = FrameType::kNetHello;
  frames[6].proto = fleet::kNetProtocolVersion;
  frames[7].type = FrameType::kAssign;
  frames[7].worker = 1;
  frames[7].payload =
      ToBytes(std::string(fleet::kCheckpointMagic) + "\nend 0\n");
  frames[8].type = FrameType::kBye;
  std::vector<Bytes> out;
  for (const Frame& frame : frames) {
    out.push_back(ToBytes(fleet::EncodeFrame(frame)));
  }
  // A protocol-5 hello: it decodes to its version, whatever follows it.
  out.push_back(ToBytes("SPTW1 NETHELLO 5 4242\n"));
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
        // A replayed load and query name exactly these tables.
        for (const fuzz::TableSpec& table : r1.value().sdb.tables) {
          EXPECT_TRUE(IsPlainIdentifier(table.name)) << table.name;
        }
        if (r1.value().has_query) {
          EXPECT_TRUE(IsPlainIdentifier(r1.value().query.table1));
          EXPECT_TRUE(IsPlainIdentifier(r1.value().query.table2));
        }
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
       {"SPTW1", "BUG", "COV", "INFLIGHT", "ASSIGN", " ", "-", ",", "0", "1e5",
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

// --- SQL -----------------------------------------------------------------

// Statements the program prints: generated databases' DDL and INSERTs,
// count queries of every predicate shape, their TLP partitions and EET
// variants (PrintStatement), and derive statements in the generator's form.
std::vector<std::string> PrintedSql() {
  std::vector<std::string> out = {
      "SELECT ST_AsText(ST_GeometryN(ST_GeomFromText("
      "'MULTIPOINT((0 0),(1 1))'), 0));",
      "SELECT ST_AsText(ST_SetPoint(ST_GeomFromText('LINESTRING(0 0,1 1)'), "
      "1, 'POINT(-3 2.5)'));",
      "SELECT ST_AsText(ST_Collect(ST_GeomFromText('POINT(1 2)'), "
      "ST_GeomFromText('POLYGON((0 0,1 0,1 1,0 0))')));",
  };
  for (int d = 0; d < engine::kNumDialects; ++d) {
    engine::Engine e(static_cast<engine::Dialect>(d), false);
    fuzz::GeneratorConfig config;
    config.num_geometries = 6;
    Rng rng(300 + static_cast<uint64_t>(d));
    fuzz::GeometryAwareGenerator gen(config, &rng, &e);
    fuzz::DatabaseSpec sdb = gen.Generate(nullptr);
    sdb.with_index = d % 2 == 1;
    for (std::string& stmt : sdb.ToSql()) out.push_back(std::move(stmt));
    for (int q = 0; q < 8; ++q) {
      const std::string query = gen.RandomQuery(sdb).ToSql();
      out.push_back(query);
      Result<sql::StatementPtr> base = sql::ParseStatement(query);
      EXPECT_TRUE(base.ok()) << query;
      if (!base.ok()) continue;
      for (bool negate : {true, false}) {
        sql::Statement tlp;
        tlp.kind = sql::Statement::Kind::kSelectCountJoin;
        tlp.table = base.value()->table;
        tlp.table2 = base.value()->table2;
        sql::ExprPtr cond = base.value()->condition->Clone();
        tlp.condition = negate ? sql::Expr::MakeNot(std::move(cond))
                               : sql::Expr::MakeIsUnknown(std::move(cond));
        out.push_back(sql::PrintStatement(tlp));
      }
      for (int j = 0; j < eet::kNumEetTransforms; ++j) {
        sql::StatementPtr variant = eet::ApplyTransform(
            static_cast<eet::TransformId>(j), *base.value(), 12.5);
        if (variant) out.push_back(sql::PrintStatement(*variant));
      }
    }
  }
  return out;
}

// Two parsed expressions alike, literal numbers compared by value: -0 and
// 0 print alike.
bool SameExpr(const sql::Expr* a, const sql::Expr* b) {
  if (a == nullptr || b == nullptr) return a == b;
  if (a->kind != b->kind || a->text != b->text || a->number != b->number ||
      a->bool_value != b->bool_value || a->table != b->table ||
      a->name != b->name || a->args.size() != b->args.size()) {
    return false;
  }
  for (size_t i = 0; i < a->args.size(); ++i) {
    if (!SameExpr(a->args[i].get(), b->args[i].get())) return false;
  }
  return true;
}

bool SameExprs(const std::vector<sql::ExprPtr>& a,
               const std::vector<sql::ExprPtr>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameExpr(a[i].get(), b[i].get())) return false;
  }
  return true;
}

bool SameStatement(const sql::Statement& a, const sql::Statement& b) {
  if (a.kind != b.kind || a.table != b.table || a.table2 != b.table2 ||
      a.index_name != b.index_name || a.columns.size() != b.columns.size() ||
      a.insert_cols != b.insert_cols || a.rows.size() != b.rows.size() ||
      a.set_name != b.set_name ||
      !SameExpr(a.set_value.get(), b.set_value.get()) ||
      !SameExpr(a.condition.get(), b.condition.get()) ||
      !SameExpr(a.filter1.get(), b.filter1.get()) ||
      !SameExprs(a.select_list, b.select_list)) {
    return false;
  }
  for (size_t i = 0; i < a.columns.size(); ++i) {
    if (a.columns[i].name != b.columns[i].name ||
        a.columns[i].type != b.columns[i].type) {
      return false;
    }
  }
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (!SameExprs(a.rows[r], b.rows[r])) return false;
  }
  return true;
}

bool FiniteNumbers(const sql::Expr* e) {
  if (e == nullptr) return true;
  if (e->kind == sql::Expr::Kind::kNumberLiteral && !std::isfinite(e->number)) {
    return false;
  }
  for (const sql::ExprPtr& arg : e->args) {
    if (!FiniteNumbers(arg.get())) return false;
  }
  return true;
}

bool FiniteNumbers(const sql::Statement& s) {
  std::vector<const sql::Expr*> exprs = {s.set_value.get(), s.condition.get(),
                                         s.filter1.get()};
  for (const sql::ExprPtr& e : s.select_list) exprs.push_back(e.get());
  for (const auto& row : s.rows) {
    for (const sql::ExprPtr& e : row) exprs.push_back(e.get());
  }
  for (const sql::Expr* e : exprs) {
    if (!FiniteNumbers(e)) return false;
  }
  return true;
}

TEST(DecoderFuzz, SqlAcceptsOnlyPrintFixedPoints) {
  std::vector<Bytes> seeds;
  for (const std::string& sql : PrintedSql()) seeds.push_back(ToBytes(sql));
  std::vector<Bytes> tokens;
  for (const char* token :
       {"1e309", "-1e309", "1e308", "-", "-0", ".5e-3", "0x10", "nan", "inf",
        "'", "''", "(", ")", ",", ";", "::geometry", " ~= ", "NOT ", " AND ",
        " OR ", " IS UNKNOWN", " IS NOT NULL", "@g1", "TRUE", "--"}) {
    tokens.push_back(ToBytes(token));
  }

  const size_t accepted = FuzzInputs(
      seeds, tokens, /*seed=*/0x5eed5, /*count=*/150000, [](const Bytes& in) {
        const std::string text(in.begin(), in.end());
        Result<sql::StatementPtr> s1 = sql::ParseStatement(text);
        if (!s1.ok()) return false;
        EXPECT_TRUE(FiniteNumbers(*s1.value())) << text;
        const std::string p1 = sql::PrintStatement(*s1.value());
        Result<sql::StatementPtr> s2 = sql::ParseStatement(p1);
        EXPECT_TRUE(s2.ok()) << text << " printed as " << p1;
        if (!s2.ok()) return true;
        EXPECT_TRUE(SameStatement(*s1.value(), *s2.value()))
            << text << " printed as " << p1;
        EXPECT_EQ(sql::PrintStatement(*s2.value()), p1) << text;
        return true;
      });
  EXPECT_GT(accepted, 1000u);
}

// --- Checkpoints ---------------------------------------------------------

// Checkpoints of a resumed run: the identity block, counts, completed
// marks, unique bugs a small all-oracle campaign found (their BUG frames
// name their fault and carry encoded reproducers), covered sites, a
// coverage curve, a corpus manifest and the metrics baseline.
std::vector<Bytes> Checkpoints() {
  fuzz::CampaignConfig config;
  config.dialect = engine::Dialect::kDuckdbSpatial;
  config.seed = 4242;
  config.iterations = 4;
  config.queries_per_iteration = 12;
  config.generator.num_geometries = 6;
  config.oracles = fuzz::ParseOracleSuite("all").Take();
  const fuzz::CampaignResult result = fuzz::Campaign(config).Run();
  EXPECT_FALSE(result.unique_bugs.empty());

  fleet::CheckpointState state;
  state.base = config;
  state.base.iterations = 40;
  state.total_slices = 4;
  state.dialects = {engine::Dialect::kDuckdbSpatial, engine::Dialect::kPostgis};
  state.duration_seconds = 30.5;
  state.elapsed_seconds = 12.25;
  state.iterations_run = 4;
  state.queries_run = 48;
  state.checks_run = 240;
  state.findings = 17;
  state.busy_seconds = 3.0625;
  state.engine_seconds = 1.5e-3;
  const auto duckdb = static_cast<uint64_t>(engine::Dialect::kDuckdbSpatial);
  for (uint64_t slice = 0; slice < 4; ++slice) {
    state.completed[{duckdb, slice}] = slice;
  }
  // Three bugs keep each document, and so each mutant, small.
  for (const auto& [id, bug] : result.unique_bugs) {
    if (state.unique_bugs.size() == 3) break;
    state.unique_bugs.emplace_back(id, bug);
  }
  state.covered_sites = {1, 0x9e3779b97f4a7c15ULL, ~uint64_t{0}};
  state.curve = {{0.5, 120, 1, 2}, {6.25, 180, 3, 4}};
  state.metrics.counters["campaign.iterations"] = 4;
  state.metrics.gauges["corpus.size"] = 2;
  obs::HistogramData hist;
  hist.count = 2;
  hist.sum_ns = 3000;
  hist.buckets.assign(obs::LatencyHistogram::kNumBuckets, 0);
  hist.buckets[10] = 2;
  state.metrics.histograms["engine.statement"] = hist;

  std::vector<Bytes> out = {ToBytes(fleet::EncodeCheckpoint(state))};
  state.base.corpus.enabled = true;
  state.base.corpus.mutate_pct = 35;
  state.corpus_dir = "corpus dir";
  state.corpus_signatures = {0xaULL, 0xbULL};
  out.push_back(ToBytes(fleet::EncodeCheckpoint(state)));
  return out;
}

TEST(DecoderFuzz, CheckpointAcceptsOnlyFixedPoints) {
  const std::vector<Bytes> seeds = Checkpoints();
  std::vector<Bytes> tokens = {ToBytes("\n")};
  for (const char* token :
       {"progress 0 1 2", "bug SPTW1 BUG ", "sites ", "curve ", "corpus ",
        "end ", " ", "-",
        "0", "1e5", "-0", "nan", "inf", "1e309", "0x10", "ff",
        "18446744073709551616"}) {
    tokens.push_back(ToBytes(token));
  }

  const size_t accepted = FuzzInputs(
      seeds, tokens, /*seed=*/0x5eed6, /*count=*/30000, [](const Bytes& in) {
        const std::string text(in.begin(), in.end());
        Result<fleet::CheckpointState> s1 = fleet::DecodeCheckpoint(text);
        if (!s1.ok()) return false;
        const std::string t1 = fleet::EncodeCheckpoint(s1.value());
        Result<fleet::CheckpointState> s2 = fleet::DecodeCheckpoint(t1);
        EXPECT_TRUE(s2.ok()) << s2.status().ToString();
        if (!s2.ok()) return true;
        // Encoding drops nothing it decoded.
        EXPECT_EQ(s2.value().unique_bugs.size(), s1.value().unique_bugs.size());
        EXPECT_EQ(fleet::EncodeCheckpoint(s2.value()), t1);
        return true;
      });
  EXPECT_GT(accepted, 1000u);
}

// --- Metrics text -----------------------------------------------------------

// Metrics documents: a short all-oracle campaign's registry snapshot, its
// histograms' timings replaced by fixed values so the seeds are the same
// on every run, and one document of edge values (the largest counter, the
// smallest gauge, a histogram with no bucket).
std::vector<Bytes> MetricsDocuments() {
  obs::MetricsRegistry::Instance().Reset();
  fuzz::CampaignConfig config;
  config.dialect = engine::Dialect::kPostgis;
  config.seed = 977;
  config.iterations = 2;
  config.queries_per_iteration = 8;
  config.generator.num_geometries = 6;
  config.oracles = fuzz::ParseOracleSuite("all").Take();
  fuzz::Campaign(config).Run();
  obs::MetricsSnapshot campaign = obs::MetricsRegistry::Instance().Snapshot();
  EXPECT_FALSE(campaign.histograms.empty());
  for (auto& [name, h] : campaign.histograms) {
    h.sum_ns = 1000 * h.count;
    h.buckets.assign(obs::LatencyHistogram::kNumBuckets, 0);
    h.buckets[name.size() % obs::LatencyHistogram::kNumBuckets] = h.count;
  }
  obs::MetricsSnapshot edges;
  edges.counters["c.max"] = ~uint64_t{0};
  edges.counters["c.zero"] = 0;
  edges.gauges["g.min"] = std::numeric_limits<int64_t>::min();
  edges.gauges["g.max"] = std::numeric_limits<int64_t>::max();
  edges.histograms["h.empty"].buckets.assign(
      obs::LatencyHistogram::kNumBuckets, 0);
  obs::HistogramData& spread = edges.histograms["h.spread"];
  spread.buckets.assign(obs::LatencyHistogram::kNumBuckets, 0);
  spread.buckets.front() = 1;
  spread.buckets.back() = 2;
  spread.count = 3;
  spread.sum_ns = ~uint64_t{0};
  return {ToBytes(campaign.EncodeText()), ToBytes(edges.EncodeText())};
}

TEST(DecoderFuzz, MetricsTextAcceptsOnlyFixedPoints) {
  const std::vector<Bytes> seeds = MetricsDocuments();
  std::vector<Bytes> tokens;
  for (const char* token :
       {"c ", "g ", "h ", "end ", "\n", " ", "\t", "-", ",", ":", "0", "-0",
        "1e5", "nan", "inf", "0x10", "18446744073709551615",
        "18446744073709551616", "-9223372036854775808",
        "9223372036854775808", obs::kMetricsTextMagic}) {
    tokens.push_back(ToBytes(token));
  }

  const size_t accepted = FuzzInputs(
      seeds, tokens, /*seed=*/0x5eed7, /*count=*/100000, [](const Bytes& in) {
        const std::string text(in.begin(), in.end());
        Result<obs::MetricsSnapshot> m1 = obs::MetricsSnapshot::DecodeText(text);
        if (!m1.ok()) return false;
        const std::string t1 = m1.value().EncodeText();
        Result<obs::MetricsSnapshot> m2 = obs::MetricsSnapshot::DecodeText(t1);
        EXPECT_TRUE(m2.ok()) << text << " printed as " << t1;
        if (!m2.ok()) return true;
        EXPECT_EQ(m2.value().EncodeText(), t1) << text;
        return true;
      });
  EXPECT_GT(accepted, 1000u);
}

// The request heads a scraper sends for the status endpoint's three
// routes; an accepted path, rendered back into a request head, parses to
// itself.
TEST(DecoderFuzz, StatusRequestPathAcceptsOnlyFixedPoints) {
  std::vector<Bytes> seeds;
  for (const char* path : {"/metrics", "/fleet", "/bugs"}) {
    seeds.push_back(ToBytes(std::string("GET ") + path + " HTTP/1.0\r\n\r\n"));
  }
  std::vector<Bytes> tokens;
  for (const char* token : {"GET ", "POST ", " ", "/", "?", "%20", " HTTP/",
                            "HTTP/1.1", "\r\n", "\n", "\r\n\r\n"}) {
    tokens.push_back(ToBytes(token));
  }

  const size_t accepted = FuzzInputs(
      seeds, tokens, /*seed=*/0x5eed9, /*count=*/100000, [](const Bytes& in) {
        const std::string head(in.begin(), in.end());
        std::string p1;
        if (!net::ParseRequestPath(head, &p1)) return false;
        const std::string h1 = "GET " + p1 + " HTTP/1.0\r\n\r\n";
        std::string p2;
        EXPECT_TRUE(net::ParseRequestPath(h1, &p2)) << head;
        EXPECT_EQ(p2, p1) << head;
        return true;
      });
  EXPECT_GT(accepted, 1000u);
}

}  // namespace
}  // namespace spatter::geom
