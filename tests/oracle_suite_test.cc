// Oracle-suite tests: the pluggable Oracle interface, campaign-level
// index/TLP/differential runs, per-oracle bug attribution, the
// bit-identical-default regression (the AEI-only suite must reproduce the
// pre-redesign campaign exactly), oracle-aware reduction, the
// codec/wire plumbing that carries the detecting oracle to reproducers,
// and golden pins of every oracle's per-check outcome and of the coverage
// an all-oracle campaign hits.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/coverage.h"
#include "common/rng.h"
#include "corpus/codec.h"
#include "fleet/wire.h"
#include "fuzz/aei.h"
#include "fuzz/campaign.h"
#include "fuzz/generator.h"
#include "fuzz/oracle_suite.h"
#include "fuzz/reducer.h"
#include "obs/metrics.h"
#include "runtime/sharded_campaign.h"

namespace spatter::fuzz {
namespace {

using engine::Dialect;

CampaignConfig BaseCampaign(uint64_t seed) {
  CampaignConfig config;
  config.dialect = Dialect::kPostgis;
  config.seed = seed;
  config.iterations = 10;
  config.queries_per_iteration = 50;
  config.generator.num_geometries = 10;
  return config;
}

std::set<std::string> BugNames(const CampaignResult& result) {
  std::set<std::string> names;
  for (const auto& [id, d] : result.unique_bugs) {
    names.insert(faults::GetFaultInfo(id).name);
  }
  return names;
}

TEST(OracleSuiteDefault, BitIdenticalToPreRedesignCampaign) {
  // Regression pin captured from the pre-suite build (commit c279641) at
  // seed 4242, 10 x 50 checks on faulty PostGIS: the default --oracles=aei
  // configuration must reproduce the exact discrepancy count and
  // unique-bug set — same RNG stream, same bug universe, bit for bit.
  Campaign campaign(BaseCampaign(4242));
  const CampaignResult result = campaign.Run();
  EXPECT_EQ(result.discrepancies.size(), 22u);
  EXPECT_EQ(BugNames(result),
            (std::set<std::string>{
                "geos_gc_boundary_last_one_wins",
                "geos_mixed_dimension_first_element",
                "geos_gc_empty_element_intersects",
                "geos_crash_convex_hull_collinear",
                "postgis_distance_empty_recursion",
                "postgis_dfullywithin_definition",
                "postgis_dwithin_negative_coords",
            }));
  // The legacy loop ran exactly one check per query.
  EXPECT_EQ(result.checks_run, result.queries_run);
  // Every oracle finding is attributed to the AEI family; crashes hit
  // during input construction belong to no oracle and say so.
  for (const auto& d : result.discrepancies) {
    if (d.query.predicate.empty()) {
      EXPECT_EQ(d.oracle, OracleKind::kGeneration);
    } else {
      EXPECT_TRUE(d.oracle == OracleKind::kAei ||
                  d.oracle == OracleKind::kCanonicalOnly)
          << OracleKindName(d.oracle);
    }
  }
}

TEST(OracleSuite, SpecParsingAndFormatting) {
  auto spec = ParseOracleSuite("aei,diff,index,tlp");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().oracles,
            (std::vector<OracleKind>{OracleKind::kAei,
                                     OracleKind::kDifferential,
                                     OracleKind::kIndex, OracleKind::kTlp}));
  EXPECT_EQ(FormatOracleSuite(spec.value()), "aei,diff,index,tlp");

  auto all = ParseOracleSuite("all");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().oracles.size(), 5u);
  EXPECT_EQ(all.value().oracles.back(), OracleKind::kEet);

  // The eet token round-trips, with and without a variant budget.
  auto eet = ParseOracleSuite("aei,eet/4");
  ASSERT_TRUE(eet.ok());
  EXPECT_EQ(eet.value().oracles,
            (std::vector<OracleKind>{OracleKind::kAei, OracleKind::kEet}));
  EXPECT_EQ(eet.value().budgets.at(OracleKind::kEet), 4u);
  EXPECT_EQ(FormatOracleSuite(eet.value()), "aei,eet/4");

  auto with_secondary = ParseOracleSuite("diff:duckdb");
  ASSERT_TRUE(with_secondary.ok());
  EXPECT_EQ(with_secondary.value().diff_secondary,
            Dialect::kDuckdbSpatial);
  EXPECT_EQ(FormatOracleSuite(with_secondary.value()), "diff:duckdb");

  EXPECT_FALSE(ParseOracleSuite("").ok());
  EXPECT_FALSE(ParseOracleSuite("aei,aei").ok());
  EXPECT_FALSE(ParseOracleSuite("nosuch").ok());
  EXPECT_FALSE(ParseOracleSuite("diff:nosuch").ok());
  EXPECT_FALSE(ParseOracleSuite("diff:").ok())
      << "an empty dialect must not silently mean the default";
  EXPECT_FALSE(ParseOracleSuite("gen").ok())
      << "generation attribution is not a configurable oracle";
}

TEST(OracleSuite, EffectiveDiffSecondaryNeverDegenerates) {
  OracleSuiteSpec spec;  // diff_secondary = mysql
  EXPECT_EQ(EffectiveDiffSecondary(spec, Dialect::kPostgis),
            Dialect::kMysql);
  EXPECT_EQ(EffectiveDiffSecondary(spec, Dialect::kMysql),
            Dialect::kPostgis);
  spec.diff_secondary = Dialect::kDuckdbSpatial;
  EXPECT_EQ(EffectiveDiffSecondary(spec, Dialect::kDuckdbSpatial),
            Dialect::kMysql);
}

TEST(OracleSuite, DifferentialOracleOwnsItsSecondaryEngine) {
  // MySQL's swapped-axes overlap bug: a postgis-primary differential
  // oracle against mysql sees the disagreement with no external engine
  // plumbing.
  OracleSuiteSpec spec;
  const auto oracle =
      MakeOracle(OracleKind::kDifferential, Dialect::kPostgis,
                 /*enable_faults=*/true, spec);
  ASSERT_TRUE(oracle->SecondaryDialect().has_value());
  EXPECT_EQ(*oracle->SecondaryDialect(), Dialect::kMysql);

  engine::Engine pg(Dialect::kPostgis, true);
  DatabaseSpec gc_db;
  gc_db.tables.push_back(TableSpec{"t1", {"POINT(0 0)"}});
  gc_db.tables.push_back(TableSpec{
      "t2", {"GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0))"}});
  QuerySpec within;
  within.table1 = "t1";
  within.table2 = "t2";
  within.predicate = "ST_Within";
  const OracleOutcome o = oracle->Check(&pg, gc_db, within, OracleCtx{});
  EXPECT_TRUE(o.applicable);
  EXPECT_TRUE(o.mismatch) << o.detail;

  // ST_Covers is missing in MySQL: the check is inapplicable.
  QuerySpec covers = within;
  covers.predicate = "ST_Covers";
  EXPECT_FALSE(oracle->Check(&pg, gc_db, covers, OracleCtx{}).applicable);
}

TEST(OracleSuite, IndexOracleCampaignFindsAndAttributesIndexBugs) {
  CampaignConfig config = BaseCampaign(7);
  config.iterations = 12;
  config.queries_per_iteration = 30;
  config.oracles.oracles = {OracleKind::kIndex};
  Campaign campaign(config);
  const CampaignResult result = campaign.Run();
  EXPECT_EQ(result.checks_run, result.queries_run);
  ASSERT_GT(result.discrepancies.size(), 0u)
      << "the index on/off oracle should catch index-path faults";
  for (const auto& d : result.discrepancies) {
    // Generation crashes are attributed to no oracle — NOT to AEI, which
    // is not even in this suite.
    EXPECT_EQ(d.oracle, d.query.predicate.empty() ? OracleKind::kGeneration
                                                  : OracleKind::kIndex);
  }
  const auto by_oracle = result.UniqueBugsByOracle();
  EXPECT_TRUE(by_oracle.count(OracleKind::kIndex));
}

TEST(OracleSuite, TlpOracleCampaignRunsAndStaysQuietOnCleanEngine) {
  CampaignConfig config = BaseCampaign(11);
  config.iterations = 6;
  config.queries_per_iteration = 30;
  config.enable_faults = false;
  config.oracles.oracles = {OracleKind::kTlp};
  Campaign clean(config);
  const CampaignResult clean_result = clean.Run();
  EXPECT_EQ(clean_result.discrepancies.size(), 0u)
      << "TLP must hold on our own (fixed) semantics";

  config.enable_faults = true;
  config.iterations = 12;
  Campaign faulty(config);
  const CampaignResult faulty_result = faulty.Run();
  for (const auto& d : faulty_result.discrepancies) {
    if (d.query.predicate.empty()) continue;
    EXPECT_EQ(d.oracle, OracleKind::kTlp);
  }
}

TEST(OracleSuite, MultiOracleCampaignAttributesPerOracle) {
  CampaignConfig config = BaseCampaign(7);
  config.iterations = 12;
  config.queries_per_iteration = 30;
  auto spec = ParseOracleSuite("aei,diff,index,tlp");
  ASSERT_TRUE(spec.ok());
  config.oracles = spec.Take();
  Campaign campaign(config);
  const CampaignResult result = campaign.Run();
  // Four checks per query (one per configured oracle).
  EXPECT_EQ(result.checks_run, 4 * result.queries_run);
  const auto by_oracle = result.UniqueBugsByOracle();
  // Observed at this pinned seed: every oracle family wins at least one
  // fault (AEI/canon share the aei family's stream).
  EXPECT_GE(by_oracle.size(), 3u);
  EXPECT_TRUE(by_oracle.count(OracleKind::kDifferential));
  size_t attributed = 0;
  for (const auto& [kind, ids] : by_oracle) attributed += ids.size();
  EXPECT_EQ(attributed, result.unique_bugs.size());
}

TEST(OracleSuite, InstrumentsCountEveryCheck) {
  // Each check lands in its oracle's `.check` histogram and one verdict
  // counter; a query a budget skips lands in `.budget_skipped` instead.
  CampaignConfig config = BaseCampaign(11);
  config.iterations = 4;
  config.queries_per_iteration = 20;
  config.oracles = ParseOracleSuite("aei,diff,index,tlp/2,eet").Take();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  const obs::MetricsSnapshot before = registry.Snapshot();
  const CampaignResult result = Campaign(config).Run();
  const obs::MetricsSnapshot after = registry.Snapshot();
  const auto delta = [&](const std::string& name) {
    return after.CounterOr(name) - before.CounterOr(name);
  };
  const auto checks = [&](const std::string& name) {
    const obs::HistogramData* now = after.FindHistogram(name);
    const obs::HistogramData* then = before.FindHistogram(name);
    return (now ? now->count : 0) - (then ? then->count : 0);
  };

  uint64_t verdicts_total = 0;
  for (const char* token : {"aei", "diff", "index", "tlp", "eet"}) {
    SCOPED_TRACE(token);
    const std::string prefix = std::string("oracle.") + token;
    uint64_t verdicts = 0;
    for (const char* verdict :
         {".ok", ".mismatch", ".crash", ".inapplicable"}) {
      verdicts += delta(prefix + verdict);
    }
    EXPECT_EQ(checks(prefix + ".check"), verdicts);
    // Only TLP is budgeted: every other oracle judges every query.
    const uint64_t skipped = delta(prefix + ".budget_skipped");
    EXPECT_EQ(verdicts + skipped, result.queries_run);
    if (std::string(token) == "tlp") {
      EXPECT_EQ(skipped, result.queries_run / 2) << "odd ordinals skip";
    } else {
      EXPECT_EQ(skipped, 0u);
    }
    verdicts_total += verdicts;
  }
  EXPECT_GT(result.queries_run, 0u);
  EXPECT_EQ(verdicts_total, result.checks_run);
}

TEST(OracleSuite, MultiOracleBugSetInvariantAcrossJobs) {
  runtime::ShardedCampaignConfig config;
  config.base = BaseCampaign(21);
  config.base.iterations = 9;
  config.base.queries_per_iteration = 20;
  auto spec = ParseOracleSuite("all");  // includes eet
  ASSERT_TRUE(spec.ok());
  config.base.oracles = spec.Take();

  config.jobs = 1;
  runtime::ShardedCampaign serial(config);
  const CampaignResult r1 = serial.Run();

  config.jobs = 3;
  runtime::ShardedCampaign sharded(config);
  const CampaignResult r3 = sharded.Run();

  EXPECT_EQ(BugNames(r1), BugNames(r3));
  // The winning oracle per fault is part of the determinism contract.
  for (const auto& [id, d] : r1.unique_bugs) {
    const auto it = r3.unique_bugs.find(id);
    ASSERT_NE(it, r3.unique_bugs.end());
    EXPECT_EQ(d.oracle, it->second.oracle)
        << faults::GetFaultInfo(id).name;
    EXPECT_EQ(d.iteration, it->second.iteration);
  }
}

TEST(OracleSuite, ReducerReChecksWithDetectingOracle) {
  // An index-oracle find (the GiST EMPTY bug) padded with junk rows: the
  // reducer must shrink it while re-checking with the INDEX oracle — the
  // AEI check never sees this mismatch (both sides load identically), so
  // a non-oracle-aware reducer would refuse to reduce at all.
  engine::Engine faulty(Dialect::kPostgis, true);
  Discrepancy d;
  d.oracle = OracleKind::kIndex;
  d.dialect = Dialect::kPostgis;
  d.query.table1 = "t1";
  d.query.table2 = "t2";
  d.query.predicate = "~=";
  d.transform = algo::AffineTransform::Identity();
  d.sdb1.tables.push_back(TableSpec{
      "t1", {"POINT EMPTY", "POINT(5 5)", "LINESTRING(0 0,2 2)"}});
  d.sdb1.tables.push_back(TableSpec{
      "t2", {"POINT EMPTY", "POLYGON((0 0,4 0,4 4,0 4,0 0))"}});
  IndexOracle index;
  const auto check = index.Check(&faulty, d.sdb1, d.query, OracleCtx{});
  ASSERT_TRUE(check.mismatch) << check.detail;

  ReductionStats stats;
  const Discrepancy reduced = ReduceDiscrepancy(
      &faulty, d, &stats, faults::FaultId::kPostgisGistEmptySameAs);
  EXPECT_LT(reduced.sdb1.TotalRows(), d.sdb1.TotalRows());
  EXPECT_GT(stats.checks, 0u);
  const auto again = index.Check(&faulty, reduced.sdb1, d.query, OracleCtx{});
  EXPECT_TRUE(again.mismatch) << "minimized repro must still fail the "
                                 "detecting oracle";
  EXPECT_TRUE(again.fault_hits.count(faults::FaultId::kPostgisGistEmptySameAs));
}

TEST(OracleSuite, CodecRoundTripsDetectingOracle) {
  corpus::TestCaseRecord rec;
  rec.kind = corpus::RecordKind::kReproducer;
  rec.dialect = Dialect::kPostgis;
  rec.seed = 99;
  rec.iteration = 3;
  rec.sdb.tables.push_back(TableSpec{"t1", {"POINT(1 2)"}});
  rec.sdb.tables.push_back(TableSpec{"t2", {"POINT(1 2)"}});
  rec.has_query = true;
  rec.query.table1 = "t1";
  rec.query.table2 = "t2";
  rec.query.predicate = "ST_Within";
  rec.oracle = OracleKind::kDifferential;
  rec.diff_secondary = Dialect::kDuckdbSpatial;

  auto encoded = corpus::TestCaseCodec::Encode(rec);
  ASSERT_TRUE(encoded.ok());
  auto decoded = corpus::TestCaseCodec::Decode(encoded.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().oracle, OracleKind::kDifferential);
  EXPECT_EQ(decoded.value().diff_secondary, Dialect::kDuckdbSpatial);

  // Byte-identical re-encode (the codec's core contract, now with the
  // oracle fields in the payload).
  auto re = corpus::TestCaseCodec::Encode(decoded.value());
  ASSERT_TRUE(re.ok());
  EXPECT_EQ(re.value(), encoded.value());
}

TEST(OracleSuite, CodecDecodesLegacyV1RecordsAsAeiFamily) {
  // v1 records carry the oracle identity in the canonicalization byte
  // alone, which Encode still derives from the oracle.
  for (const OracleKind oracle :
       {OracleKind::kCanonicalOnly, OracleKind::kAei, OracleKind::kTlp}) {
    corpus::TestCaseRecord rec;
    rec.kind = corpus::RecordKind::kReproducer;
    rec.dialect = Dialect::kPostgis;
    rec.sdb.tables.push_back(TableSpec{"t1", {"POINT(0 0)"}});
    rec.oracle = oracle;
    auto encoded = corpus::TestCaseCodec::Encode(rec);
    ASSERT_TRUE(encoded.ok());

    // Rewrite as a v1 record: patch the version word and strip the two
    // appended oracle bytes (v2 = v1 payload + oracle + diff_secondary).
    std::vector<uint8_t> v1 = encoded.value();
    ASSERT_EQ(v1[4], 2u);  // version lives after the 4-byte magic
    v1[4] = 1;
    v1.resize(v1.size() - 2);
    auto decoded = corpus::TestCaseCodec::Decode(v1);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().oracle, oracle == OracleKind::kCanonicalOnly
                                          ? OracleKind::kCanonicalOnly
                                          : OracleKind::kAei)
        << OracleKindName(oracle);
  }
}

TEST(OracleSuite, BugFrameCarriesDetectingOracle) {
  Discrepancy d;
  d.iteration = 5;
  d.query_index = 2;
  d.oracle = OracleKind::kTlp;
  d.dialect = Dialect::kMysql;
  d.sdb1.tables.push_back(TableSpec{"t1", {"POINT(1 1)"}});
  d.query.table1 = "t1";
  d.query.table2 = "t1";
  d.query.predicate = "ST_Intersects";
  d.detail = "partitions {1+0+0} != cross join {2}";
  d.fault_hits = {faults::FaultId::kMysqlTouchesEmptyCollection};
  // The frame names the fault; the record carries the oracle.
  auto frame = fleet::MakeBugFrame(*d.fault_hits.begin(), d,
                                   /*master_seed=*/42);
  ASSERT_TRUE(frame.ok());
  auto line = fleet::EncodeFrame(frame.value());
  auto decoded = fleet::DecodeFrame(line);
  ASSERT_TRUE(decoded.ok());
  auto back = fleet::BugFrameToDiscrepancy(decoded.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().oracle, OracleKind::kTlp);
  EXPECT_EQ(back.value().dialect, Dialect::kMysql);
}

TEST(OracleSuite, EetCodecRoundTripAndBugFrame) {
  // The codec v2 record carries kEet (appended after kGeneration, value 6)
  // and re-encodes byte-identically.
  corpus::TestCaseRecord rec;
  rec.kind = corpus::RecordKind::kReproducer;
  rec.dialect = Dialect::kPostgis;
  rec.seed = 7;
  rec.sdb.tables.push_back(TableSpec{"t1", {"POINT(1 1)"}});
  rec.sdb.tables.push_back(TableSpec{"t2", {"POINT(1 1)"}});
  rec.has_query = true;
  rec.query.table1 = "t1";
  rec.query.table2 = "t2";
  rec.query.predicate = "ST_Intersects";
  rec.oracle = OracleKind::kEet;
  auto encoded = corpus::TestCaseCodec::Encode(rec);
  ASSERT_TRUE(encoded.ok());
  auto decoded = corpus::TestCaseCodec::Decode(encoded.value());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().oracle, OracleKind::kEet);
  auto re = corpus::TestCaseCodec::Encode(decoded.value());
  ASSERT_TRUE(re.ok());
  EXPECT_EQ(re.value(), encoded.value());

  // The fleet BUG frame carries it through the wire codec too.
  Discrepancy d;
  d.iteration = 1;
  d.oracle = OracleKind::kEet;
  d.dialect = Dialect::kPostgis;
  d.sdb1 = rec.sdb;
  d.query = rec.query;
  d.detail = "self_compare_guard: base {2} vs variant {1}";
  d.fault_hits = {faults::FaultId::kInjectedConjunctionSignFlip};
  auto frame = fleet::MakeBugFrame(*d.fault_hits.begin(), d,
                                   /*master_seed=*/42);
  ASSERT_TRUE(frame.ok());
  auto back =
      fleet::BugFrameToDiscrepancy(fleet::DecodeFrame(
                                       fleet::EncodeFrame(frame.value()))
                                       .value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().oracle, OracleKind::kEet);
}

TEST(OracleSuite, EetFindSurvivesReductionAndReplaysWithEetOracle) {
  // An EET find over the injected predicate fault, padded with junk rows:
  // the reducer must rebuild the EET oracle (MakeDetectingOracle — the
  // same path --replay takes), shrink the database, and the minimized
  // reproducer must still fail the EET check with the fault attributed.
  engine::Engine engine(Dialect::kPostgis, /*enable_faults=*/false);
  engine.fault_state().Enable(
      faults::FaultId::kInjectedConjunctionSignFlip);

  Discrepancy d;
  d.oracle = OracleKind::kEet;
  d.dialect = Dialect::kPostgis;
  d.query.table1 = "t1";
  d.query.table2 = "t2";
  d.query.predicate = "ST_Contains";
  d.transform = algo::AffineTransform::Identity();
  d.sdb1.tables.push_back(TableSpec{
      "t1", {"POLYGON((0 0,4 0,4 4,0 4,0 0))", "LINESTRING(7 7,8 8)"}});
  d.sdb1.tables.push_back(TableSpec{
      "t2", {"POINT(1 1)", "POINT(2 2)", "POINT(9 9)", "POINT EMPTY"}});

  const auto oracle = MakeDetectingOracle(
      OracleKind::kEet, d.dialect, d.diff_secondary, /*enable_faults=*/false);
  EXPECT_STREQ(oracle->Name(), "eet");
  EXPECT_TRUE(oracle->SamplesOwnBudget());
  const OracleOutcome before =
      oracle->Check(&engine, d.sdb1, d.query, OracleCtx{});
  ASSERT_TRUE(before.mismatch) << before.detail;
  d.detail = before.detail;
  d.fault_hits = before.fault_hits;

  ReductionStats stats;
  const Discrepancy reduced = ReduceDiscrepancy(
      &engine, d, &stats, faults::FaultId::kInjectedConjunctionSignFlip);
  EXPECT_LT(reduced.sdb1.TotalRows(), d.sdb1.TotalRows());
  EXPECT_GT(stats.checks, 0u);
  EXPECT_EQ(reduced.oracle, OracleKind::kEet);

  // Replay the minimized record the way --replay does: rebuild the
  // detecting oracle from the recorded kind, re-run the check with an
  // ordinal-free ctx (every variant), and expect the same verdict.
  const auto replayed = MakeDetectingOracle(
      reduced.oracle, reduced.dialect, reduced.diff_secondary,
      /*enable_faults=*/false);
  const OracleOutcome after =
      replayed->Check(&engine, reduced.sdb1, reduced.query, OracleCtx{});
  EXPECT_TRUE(after.mismatch) << "minimized repro must still fail EET";
  EXPECT_TRUE(after.fault_hits.count(
      faults::FaultId::kInjectedConjunctionSignFlip));
}

TEST(OracleSuite, EetCampaignAttributesAndStaysQuietWhenFixed) {
  // A fixed-engine EET campaign must be silent (the semantics-preservation
  // property at campaign scale) ...
  CampaignConfig config = BaseCampaign(17);
  config.iterations = 4;
  config.queries_per_iteration = 25;
  config.enable_faults = false;
  config.oracles.oracles = {OracleKind::kEet};
  Campaign clean(config);
  const CampaignResult clean_result = clean.Run();
  EXPECT_EQ(clean_result.discrepancies.size(), 0u)
      << "EET variants must agree with the base on fixed semantics";

  // ... and a faulty-engine one attributes its findings to kEet.
  config.enable_faults = true;
  config.iterations = 10;
  Campaign faulty(config);
  const CampaignResult result = faulty.Run();
  for (const auto& d : result.discrepancies) {
    if (d.query.predicate.empty()) continue;
    EXPECT_EQ(d.oracle, OracleKind::kEet);
    // EET findings never claim an affine matrix their check ignored.
    EXPECT_TRUE(d.transform.IsIdentity());
  }
}

TEST(OracleSuite, CanonicalOnlyOracleIgnoresDrawnTransform) {
  // The standalone canonicalization oracle must pin the identity matrix
  // even when the campaign drew a transform for the AEI member.
  engine::Engine clean(Dialect::kPostgis, false);
  DatabaseSpec sdb;
  sdb.tables.push_back(TableSpec{"t1", {"POINT(1 1)"}});
  sdb.tables.push_back(TableSpec{"t2", {"POINT(1 1)"}});
  QuerySpec q;
  q.table1 = "t1";
  q.table2 = "t2";
  q.predicate = "ST_Equals";
  OracleCtx ctx;
  ctx.transform = algo::AffineTransform::Translation(1000, 1000);
  CanonicalOnlyOracle canon;
  const OracleOutcome o = canon.Check(&clean, sdb, q, ctx);
  EXPECT_TRUE(o.applicable);
  EXPECT_FALSE(o.mismatch) << o.detail;
}

// FNV-1a, fed integers as little-endian bytes so the pinned value does
// not depend on the host.
struct Fnv1a {
  uint64_t h = 14695981039346656037ull;
  void Byte(unsigned char b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void Int(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      Byte(static_cast<unsigned char>(v >> (8 * i)));
    }
  }
  void Str(const std::string& s) {
    Int(s.size(), 8);
    for (char c : s) Byte(static_cast<unsigned char>(c));
  }
  void Outcome(const OracleOutcome& o) {
    Byte(o.applicable);
    Byte(o.mismatch);
    Byte(o.crash);
    Str(o.detail);
    Int(o.fault_hits.size(), 8);
    for (faults::FaultId id : o.fault_hits) Int(static_cast<uint32_t>(id), 4);
  }
};

TEST(OracleGolden, PerCheckOutcomesArePinned) {
  // Every oracle kind judges the same fixed-seed inputs on all four
  // dialects, faults on and off. Databases, index coins, queries and
  // transforms are drawn in the campaign's order (Campaign::RunIteration)
  // on the engine that judges them. Each outcome's verdict, detail text
  // and fault ids fold into one hash, so a refactor of the check path that
  // changes any single verdict or detail fails here, even when the
  // campaign's first-detection bug-set lines stay the same.
  constexpr uint64_t kSeed = 9001;
  constexpr size_t kIterations = 3;
  constexpr size_t kQueries = 10;
  const OracleKind kinds[] = {
      OracleKind::kAei,   OracleKind::kCanonicalOnly, OracleKind::kDifferential,
      OracleKind::kIndex, OracleKind::kTlp,           OracleKind::kEet};
  const CampaignConfig campaign;  // the campaign's index and canon coins
  Fnv1a hash;
  size_t checks = 0, inapplicable = 0, mismatches = 0, crashes = 0;
  for (const bool faulty : {true, false}) {
    for (int d = 0; d < engine::kNumDialects; ++d) {
      const auto dialect = static_cast<Dialect>(d);
      engine::Engine engine(dialect, faulty);
      std::vector<std::unique_ptr<Oracle>> oracles;
      for (OracleKind kind : kinds) {
        oracles.push_back(MakeOracle(kind, dialect, faulty, OracleSuiteSpec{}));
      }
      Rng rng(kSeed);
      GeometryAwareGenerator generator(GeneratorConfig{}, &rng, &engine);
      for (size_t i = 0; i < kIterations; ++i) {
        rng.Seed(Rng::SplitSeed(kSeed, i));
        engine.Reset();
        DatabaseSpec sdb1 = generator.Generate(nullptr);
        sdb1.with_index = rng.Percent(campaign.index_pct);
        for (size_t q = 0; q < kQueries; ++q) {
          const QuerySpec query = generator.RandomQuery(sdb1);
          OracleCtx ctx;
          ctx.canonical_only = rng.Percent(campaign.canonical_only_pct);
          const bool metric_sensitive =
              query.extra == engine::PredicateExtra::kDistance ||
              query.predicate == "~=";
          ctx.transform = ctx.canonical_only ? algo::AffineTransform::Identity()
                          : metric_sensitive ? RandomIntegerSimilarity(&rng)
                                             : RandomIntegerAffine(&rng);
          ctx.query_ordinal = i * kQueries + q;
          for (const auto& oracle : oracles) {
            const OracleOutcome o = oracle->Check(&engine, sdb1, query, ctx);
            hash.Outcome(o);
            checks++;
            if (!o.applicable) inapplicable++;
            if (o.mismatch) mismatches++;
            if (o.crash) crashes++;
          }
        }
      }
    }
  }
  EXPECT_EQ(checks, 2 * engine::kNumDialects * kIterations * kQueries *
                        std::size(kinds));
  // The inputs exercise every verdict, so the hash pins all of them.
  EXPECT_GT(inapplicable, 0u);
  EXPECT_GT(mismatches, 0u);
  EXPECT_GT(crashes, 0u);
  EXPECT_EQ(hash.h, 0x333901ac02f48e8dull)
      << std::hex << "0x" << hash.h << std::dec << " over " << checks
      << " checks: " << inapplicable << " inapplicable, " << mismatches
      << " mismatches, " << crashes << " crashes";
}

TEST(OracleGolden, CoverageHitsArePinned) {
  // Corpus admission, the Figure-8 curves and Table 5 all read coverage.
  // An all-oracle pure-generate campaign runs on every dialect, faults on
  // and off; each iteration's trace and the hit-count delta of every site
  // fold into one hash. Sites are folded by their stable key in key order,
  // so the value does not depend on registration order, and a change that
  // alters which sites an iteration hits, or how often, fails here.
  auto& registry = CoverageRegistry::Instance();
  auto suite = ParseOracleSuite("all");
  ASSERT_TRUE(suite.ok());
  Fnv1a hash;
  size_t iterations = 0, hits = 0;
  for (const bool faulty : {true, false}) {
    for (int d = 0; d < engine::kNumDialects; ++d) {
      CampaignConfig config;
      config.dialect = static_cast<Dialect>(d);
      config.seed = 9001;
      config.iterations = 3;
      config.queries_per_iteration = 10;
      config.enable_faults = faulty;
      config.oracles = suite.value();
      Campaign campaign(config);
      CampaignResult result;
      for (size_t i = 0; i < config.iterations; ++i) {
        const std::vector<uint64_t> before = registry.SnapshotHits();
        CoverageRegistry::BeginTrace();
        campaign.RunIterationAt(i, &result);
        const std::vector<uint32_t> trace = CoverageRegistry::TakeTrace();
        const std::vector<uint64_t> after = registry.SnapshotHits();
        std::vector<uint64_t> keys = registry.KeysOf(trace);
        std::sort(keys.begin(), keys.end());
        hash.Int(keys.size(), 8);
        for (const uint64_t key : keys) hash.Int(key, 8);
        std::vector<std::pair<uint64_t, uint64_t>> deltas;
        for (uint32_t site = 0; site < after.size(); ++site) {
          const uint64_t was = site < before.size() ? before[site] : 0;
          if (after[site] == was) continue;
          deltas.emplace_back(registry.KeysOf({site}).at(0),
                              after[site] - was);
          hits += after[site] - was;
        }
        std::sort(deltas.begin(), deltas.end());
        hash.Int(deltas.size(), 8);
        for (const auto& [key, n] : deltas) {
          hash.Int(key, 8);
          hash.Int(n, 8);
        }
        iterations++;
      }
    }
  }
  EXPECT_EQ(iterations, 2 * engine::kNumDialects * 3);
  EXPECT_EQ(hash.h, 0x2343a635f60a11acull)
      << std::hex << "0x" << hash.h << std::dec << " over " << hits << " hits";
}

}  // namespace
}  // namespace spatter::fuzz
