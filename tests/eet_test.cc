// EET subsystem tests: transformation well-formedness and dialect gating,
// the semantics-preservation property on generated queries across all four
// dialects, the injected-fault recall smoke (the EET oracle — and only the
// EET oracle — sees the predicate-evaluator fault), and the deterministic
// variant-budget sampling.
#include <gtest/gtest.h>

#include "eet/eet_oracle.h"
#include "eet/transform.h"
#include "engine/engine.h"
#include "fuzz/generator.h"
#include "fuzz/oracle_suite.h"
#include "fuzz/oracles.h"
#include "sql/parser.h"

namespace spatter::eet {
namespace {

using engine::Dialect;
using fuzz::DatabaseSpec;
using fuzz::OracleCtx;
using fuzz::OracleOutcome;
using fuzz::QuerySpec;
using fuzz::TableSpec;

constexpr Dialect kAllDialects[] = {Dialect::kPostgis,
                                    Dialect::kDuckdbSpatial, Dialect::kMysql,
                                    Dialect::kSqlserver};

sql::StatementPtr ParseBase() {
  auto parsed = sql::ParseStatement(
      "SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Intersects(t1.g, t2.g);");
  EXPECT_TRUE(parsed.ok());
  return parsed.Take();
}

// The recall fixture: one containing polygon against three points, two
// inside and one outside, so a flipped predicate changes the count in
// every direction.
DatabaseSpec RecallDatabase() {
  DatabaseSpec sdb;
  sdb.tables.push_back(TableSpec{"t1", {"POLYGON((0 0,4 0,4 4,0 4,0 0))"}});
  sdb.tables.push_back(
      TableSpec{"t2", {"POINT(1 1)", "POINT(2 2)", "POINT(9 9)"}});
  return sdb;
}

QuerySpec RecallQuery() {
  QuerySpec q;
  q.table1 = "t1";
  q.table2 = "t2";
  q.predicate = "ST_Contains";
  return q;
}

TEST(EetTransform, NamesAreStable) {
  EXPECT_STREQ(TransformName(TransformId::kDoubleNegation),
               "double_negation");
  EXPECT_STREQ(TransformName(TransformId::kEmptyTautology),
               "empty_tautology");
  EXPECT_STREQ(TransformName(TransformId::kSelfCompareGuard),
               "self_compare_guard");
  EXPECT_STREQ(TransformName(TransformId::kHullContradiction),
               "hull_contradiction");
  EXPECT_STREQ(TransformName(TransformId::kDistanceContradiction),
               "distance_contradiction");
  EXPECT_STREQ(TransformName(TransformId::kFilterPushdown),
               "filter_pushdown");
}

TEST(EetTransform, DialectGatingTracksFunctionAvailability) {
  // ST_DWithin exists in the GEOS-embedding dialects only.
  EXPECT_TRUE(
      TransformAppliesTo(TransformId::kDistanceContradiction,
                         Dialect::kPostgis));
  EXPECT_TRUE(TransformAppliesTo(TransformId::kDistanceContradiction,
                                 Dialect::kDuckdbSpatial));
  EXPECT_FALSE(TransformAppliesTo(TransformId::kDistanceContradiction,
                                  Dialect::kMysql));
  EXPECT_FALSE(TransformAppliesTo(TransformId::kDistanceContradiction,
                                  Dialect::kSqlserver));
  for (Dialect d : kAllDialects) {
    EXPECT_EQ(TransformAppliesTo(TransformId::kSelfCompareGuard, d),
              engine::GetDialectTraits(d).has_same_as_operator)
        << engine::DialectName(d);
    for (TransformId id :
         {TransformId::kDoubleNegation, TransformId::kEmptyTautology,
          TransformId::kHullContradiction, TransformId::kFilterPushdown}) {
      EXPECT_TRUE(TransformAppliesTo(id, d)) << TransformName(id);
    }
  }
}

TEST(EetTransform, RewritesAreWellFormedAndReparse) {
  const sql::StatementPtr base = ParseBase();
  for (int j = 0; j < kNumEetTransforms; ++j) {
    const auto id = static_cast<TransformId>(j);
    const sql::StatementPtr v = ApplyTransform(id, *base, 5.0);
    ASSERT_NE(v, nullptr) << TransformName(id);
    ASSERT_NE(v->condition, nullptr);
    if (id == TransformId::kFilterPushdown) {
      // Condition untouched; the tautology rides as the derived-table
      // filter, printed in FROM-subquery form.
      ASSERT_NE(v->filter1, nullptr);
      EXPECT_EQ(sql::PrintExpr(*v->condition),
                sql::PrintExpr(*base->condition));
      EXPECT_NE(sql::PrintStatement(*v).find("(SELECT * FROM t1 WHERE"),
                std::string::npos)
          << sql::PrintStatement(*v);
      continue;
    }
    // Print -> reparse -> print is a fixpoint (exercises the new AND/OR
    // precedence levels in the parser).
    const std::string printed = sql::PrintStatement(*v);
    auto re = sql::ParseStatement(printed);
    ASSERT_TRUE(re.ok()) << printed;
    EXPECT_EQ(sql::PrintStatement(*re.value()), printed);
  }
  EXPECT_EQ(ApplyTransform(TransformId::kDoubleNegation, *base, 0.0)
                ->condition->kind,
            sql::Expr::Kind::kNot);
  EXPECT_EQ(ApplyTransform(TransformId::kEmptyTautology, *base, 0.0)
                ->condition->kind,
            sql::Expr::Kind::kAnd);
  EXPECT_EQ(ApplyTransform(TransformId::kHullContradiction, *base, 0.0)
                ->condition->kind,
            sql::Expr::Kind::kOr);
  EXPECT_NE(sql::PrintStatement(*ApplyTransform(
                TransformId::kDistanceContradiction, *base, 7.5))
                .find("ST_DWithin"),
            std::string::npos);
}

TEST(EetTransform, DistanceBoundCoversEveryPair) {
  // Farthest min-distance pair: POINT(0 0) to POINT(3 4) = 5; bound is +1.
  const double d = DistanceBoundFor({"POINT(0 0)", "POINT(3 4)"},
                                    {"POINT(3 4)", "LINESTRING(0 0,1 0)"});
  EXPECT_DOUBLE_EQ(d, 6.0);
  // Nothing parseable: the fallback bound is still a sound guard input.
  EXPECT_DOUBLE_EQ(DistanceBoundFor({}, {}), 1.0);
}

// The oracle reads the bound from the engine's derived state for SDB1,
// computed once per ordered table pair. It must equal DistanceBoundFor over
// the last table of each name, unparsable rows skipped and a missing table
// read as no rows.
TEST(EetTransform, CachedDistanceBoundEqualsTheWktBound) {
  std::vector<DatabaseSpec> specs;
  for (uint64_t seed : {3u, 4u, 5u}) {
    engine::Engine e(Dialect::kPostgis, false);
    fuzz::GeneratorConfig config;
    config.num_geometries = 12;
    config.num_tables = 3;
    Rng rng(seed);
    fuzz::GeometryAwareGenerator gen(config, &rng, &e);
    specs.push_back(gen.Generate(nullptr));
  }
  DatabaseSpec odd;
  odd.tables.push_back(TableSpec{"t1", {"POINT(0 0)", "POINT(1"}});
  odd.tables.push_back(TableSpec{"t2", {"LINESTRING(5 0,5 9)", "BOX(1 2)"}});
  odd.tables.push_back(TableSpec{"t1", {"POINT(-40 3)", "POINT(2 2)"}});
  specs.push_back(odd);

  auto last_rows = [](const DatabaseSpec& sdb, const std::string& name) {
    std::vector<std::string> rows;
    for (const TableSpec& t : sdb.tables) {
      if (t.name == name) rows = t.rows;
    }
    return rows;
  };
  for (Dialect dialect : kAllDialects) {
    engine::Engine engine(dialect, true);
    for (const DatabaseSpec& sdb : specs) {
      std::vector<std::string> names = {"missing"};
      for (const TableSpec& t : sdb.tables) names.push_back(t.name);
      // Twice over every ordered pair, self-joins included: the second
      // round reads what the first cached.
      for (int round = 0; round < 2; ++round) {
        for (const std::string& a : names) {
          for (const std::string& b : names) {
            EXPECT_EQ(fuzz::DistanceBound(&engine, sdb, a, b),
                      DistanceBoundFor(last_rows(sdb, a), last_rows(sdb, b)))
                << a << " x " << b << " round " << round;
          }
        }
      }
    }
  }
}

// The property the whole oracle rests on: every variant returns the base
// count on a fixed engine, for generated databases and queries, in all
// four dialects, with and without an index.
TEST(EetProperty, VariantsPreserveCountsOnFixedEngines) {
  for (Dialect d : kAllDialects) {
    engine::Engine engine(d, /*enable_faults=*/false);
    Rng rng(1234 + static_cast<uint64_t>(d));
    fuzz::GeneratorConfig config;
    config.num_geometries = 8;
    fuzz::GeometryAwareGenerator gen(config, &rng, &engine);
    EetOracle oracle;
    for (int i = 0; i < 12; ++i) {
      DatabaseSpec sdb = gen.Generate(nullptr);
      sdb.with_index = (i % 2) == 1;
      const QuerySpec query = gen.RandomQuery(sdb);
      const OracleOutcome o = oracle.Check(&engine, sdb, query, OracleCtx{});
      EXPECT_FALSE(o.crash)
          << engine::DialectName(d) << " " << query.ToSql() << ": "
          << o.detail;
      EXPECT_FALSE(o.mismatch)
          << engine::DialectName(d) << " " << query.ToSql() << ": "
          << o.detail;
    }
  }
}

// Recall smoke over the injected ground-truth corpus: the conjunction
// sign-flip only fires in AND/OR evaluation, which only EET-rewritten
// conditions contain — so the EET oracle must see it and no other
// configured oracle may.
TEST(EetRecall, InjectedPredicateFaultIsEetExclusive) {
  engine::Engine engine(Dialect::kPostgis, /*enable_faults=*/false);
  engine.fault_state().Enable(
      faults::FaultId::kInjectedConjunctionSignFlip);
  const DatabaseSpec sdb = RecallDatabase();
  const QuerySpec query = RecallQuery();
  const OracleCtx ctx;

  EetOracle eet;
  const OracleOutcome hit = eet.Check(&engine, sdb, query, ctx);
  EXPECT_TRUE(hit.applicable);
  ASSERT_TRUE(hit.mismatch) << hit.detail;
  EXPECT_TRUE(hit.fault_hits.count(
      faults::FaultId::kInjectedConjunctionSignFlip))
      << "ground-truth attribution must name the injected fault";

  fuzz::AeiOracle aei;
  EXPECT_FALSE(aei.Check(&engine, sdb, query, ctx).mismatch);
  fuzz::IndexOracle index;
  EXPECT_FALSE(index.Check(&engine, sdb, query, ctx).mismatch);
  fuzz::TlpOracle tlp;
  EXPECT_FALSE(tlp.Check(&engine, sdb, query, ctx).mismatch);
  fuzz::DifferentialOracle diff(Dialect::kMysql, /*enable_faults=*/false);
  EXPECT_FALSE(diff.Check(&engine, sdb, query, ctx).mismatch);
}

TEST(EetOracleTest, BudgetSamplesVariantLoopDeterministically) {
  engine::Engine engine(Dialect::kPostgis, /*enable_faults=*/false);
  engine.fault_state().Enable(
      faults::FaultId::kInjectedConjunctionSignFlip);
  const DatabaseSpec sdb = RecallDatabase();
  const QuerySpec query = RecallQuery();

  // Budget 8 at ordinal 0 selects variant 0 only (double negation), which
  // contains no AND/OR node: the fault stays invisible.
  EetOracle sparse(8);
  OracleCtx ctx;
  ctx.query_ordinal = 0;
  EXPECT_FALSE(sparse.Check(&engine, sdb, query, ctx).mismatch);

  // Ordinal 6 selects variant 2 (the self-compare AND-guard): detected.
  ctx.query_ordinal = 6;
  const OracleOutcome hit = sparse.Check(&engine, sdb, query, ctx);
  EXPECT_TRUE(hit.mismatch) << hit.detail;
  // Pure function of the ordinal: the same query yields the same verdict
  // and detail — the factorization-invariance contract.
  const OracleOutcome again = sparse.Check(&engine, sdb, query, ctx);
  EXPECT_EQ(hit.mismatch, again.mismatch);
  EXPECT_EQ(hit.detail, again.detail);

  // No budget: every variant runs and the first AND/OR-bearing one wins.
  EetOracle full;
  ctx.query_ordinal = 0;
  EXPECT_TRUE(full.Check(&engine, sdb, query, ctx).mismatch);
}

}  // namespace
}  // namespace spatter::eet
