// SQL parser tests: the statement subset, expressions, printing round
// trips, and the paper's listing statements.
#include "sql/parser.h"

#include <gtest/gtest.h>

#include "common/strings.h"

namespace spatter::sql {
namespace {

StatementPtr Parse(const std::string& text) {
  auto r = ParseStatement(text);
  EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
  return r.ok() ? std::move(r.value()) : nullptr;
}

TEST(Parser, CreateTable) {
  auto s = Parse("CREATE TABLE t1 (g geometry);");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, Statement::Kind::kCreateTable);
  EXPECT_EQ(s->table, "t1");
  ASSERT_EQ(s->columns.size(), 1u);
  EXPECT_EQ(s->columns[0].name, "g");
  EXPECT_EQ(s->columns[0].type, "geometry");

  auto s2 = Parse("CREATE TABLE t (id int, geom geometry)");
  ASSERT_EQ(s2->columns.size(), 2u);
}

TEST(Parser, CreateIndex) {
  auto s = Parse("CREATE INDEX idx ON t USING GIST (geom);");
  EXPECT_EQ(s->kind, Statement::Kind::kCreateIndex);
  EXPECT_EQ(s->index_name, "idx");
  EXPECT_EQ(s->table, "t");
  EXPECT_EQ(s->columns[0].name, "geom");
  // USING clause is optional.
  EXPECT_NE(Parse("CREATE INDEX i2 ON t (g)"), nullptr);
}

TEST(Parser, InsertSingleAndMultiRow) {
  auto s = Parse("INSERT INTO t1 (g) VALUES ('LINESTRING(0 1,2 0)');");
  EXPECT_EQ(s->kind, Statement::Kind::kInsert);
  ASSERT_EQ(s->rows.size(), 1u);
  EXPECT_EQ(s->rows[0][0]->kind, Expr::Kind::kStringLiteral);
  EXPECT_EQ(s->rows[0][0]->text, "LINESTRING(0 1,2 0)");

  auto m = Parse(
      "INSERT INTO t (id, geom) VALUES "
      "(1,'GEOMETRYCOLLECTION(MULTIPOINT((0 0),(3 1)))'::geometry), "
      "(2,'POINT(1 1)'::geometry);");
  ASSERT_EQ(m->rows.size(), 2u);
  EXPECT_EQ(m->insert_cols.size(), 2u);
  EXPECT_EQ(m->rows[0][1]->kind, Expr::Kind::kCastGeometry);
}

TEST(Parser, SetVariableAndSetting) {
  auto v = Parse("SET @g1 = 'MULTILINESTRING((990 280,100 20))';");
  EXPECT_EQ(v->kind, Statement::Kind::kSet);
  EXPECT_EQ(v->set_name, "@g1");
  auto s = Parse("SET enable_seqscan = false;");
  EXPECT_EQ(s->set_name, "enable_seqscan");
  EXPECT_EQ(s->set_value->kind, Expr::Kind::kBoolLiteral);
  EXPECT_FALSE(s->set_value->bool_value);
}

TEST(Parser, SelectCountJoin) {
  auto s = Parse(
      "SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Covers(t1.g,t2.g);");
  EXPECT_EQ(s->kind, Statement::Kind::kSelectCountJoin);
  EXPECT_EQ(s->table, "t1");
  EXPECT_EQ(s->table2, "t2");
  ASSERT_NE(s->condition, nullptr);
  EXPECT_EQ(s->condition->kind, Expr::Kind::kFuncCall);
  EXPECT_EQ(s->condition->name, "ST_Covers");
  ASSERT_EQ(s->condition->args.size(), 2u);
  EXPECT_EQ(s->condition->args[0]->table, "t1");
  EXPECT_EQ(s->condition->args[0]->name, "g");
}

TEST(Parser, SelectCountWhereWithSameAs) {
  auto s = Parse(
      "SELECT COUNT(*) FROM t WHERE geom ~= 'POINT EMPTY'::geometry;");
  EXPECT_EQ(s->kind, Statement::Kind::kSelectCountWhere);
  ASSERT_NE(s->condition, nullptr);
  EXPECT_EQ(s->condition->kind, Expr::Kind::kSameAs);
}

TEST(Parser, ScalarSelectWithNestedCalls) {
  auto s = Parse(
      "SELECT ST_Crosses(ST_GeomFromText(@g1), ST_GeomFromText(@g2));");
  EXPECT_EQ(s->kind, Statement::Kind::kSelectScalar);
  ASSERT_EQ(s->select_list.size(), 1u);
  const Expr& call = *s->select_list[0];
  EXPECT_EQ(call.name, "ST_Crosses");
  EXPECT_EQ(call.args[0]->kind, Expr::Kind::kFuncCall);
  EXPECT_EQ(call.args[0]->args[0]->kind, Expr::Kind::kVarRef);
  EXPECT_EQ(call.args[0]->args[0]->name, "g1");
}

TEST(Parser, NumbersIncludingNegative) {
  auto s = Parse("SELECT ST_DFullyWithin('LINESTRING(0 0,0 1)'::geometry,"
                 "'POLYGON((0 0,0 1,1 0,0 0))'::geometry,100);");
  const Expr& call = *s->select_list[0];
  ASSERT_EQ(call.args.size(), 3u);
  EXPECT_DOUBLE_EQ(call.args[2]->number, 100.0);
  auto n = Parse("SELECT ST_GeometryN('MULTIPOINT((1 1))'::geometry, -1);");
  EXPECT_DOUBLE_EQ(n->select_list[0]->args[1]->number, -1.0);
}

TEST(Parser, NotAndIsUnknown) {
  auto s = Parse(
      "SELECT COUNT(*) FROM t1 JOIN t2 ON NOT ST_Intersects(t1.g, t2.g);");
  EXPECT_EQ(s->condition->kind, Expr::Kind::kNot);
  auto u = Parse(
      "SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Intersects(t1.g, t2.g) IS "
      "UNKNOWN;");
  EXPECT_EQ(u->condition->kind, Expr::Kind::kIsUnknown);
  auto nn = Parse(
      "SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Intersects(t1.g, t2.g) IS NOT "
      "NULL;");
  EXPECT_EQ(nn->condition->kind, Expr::Kind::kNot);
}

TEST(Parser, EscapedQuotesInStrings) {
  auto s = Parse("SET @x = 'it''s a string';");
  EXPECT_EQ(s->set_value->text, "it's a string");
}

TEST(Parser, CommentsAndScripts) {
  auto r = ParseScript(
      "-- create the tables\n"
      "CREATE TABLE t1 (g geometry);\n"
      "CREATE TABLE t2 (g geometry); -- second\n"
      "INSERT INTO t1 (g) VALUES ('POINT(0.2 0.9)');\n"
      "SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Covers(t1.g,t2.g);\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().size(), 4u);
}

TEST(Parser, RejectsMalformedStatements) {
  EXPECT_FALSE(ParseStatement("").ok());
  EXPECT_FALSE(ParseStatement("CREATE nonsense").ok());
  EXPECT_FALSE(ParseStatement("SELECT COUNT(*) FROM").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO t VALUES").ok());
  EXPECT_FALSE(ParseStatement("SELECT COUNT(*) FROM t1 JOIN t2").ok());
  EXPECT_FALSE(ParseStatement("UPDATE t SET g = 1").ok());
  EXPECT_FALSE(ParseStatement("SELECT 'unterminated").ok());
  EXPECT_FALSE(ParseStatement("SELECT f(1,)").ok());
}

TEST(Printer, RoundTripsThroughParser) {
  const char* statements[] = {
      "CREATE TABLE t1 (g geometry);",
      "CREATE INDEX idx ON t USING GIST (g);",
      "INSERT INTO t1 (g) VALUES ('POINT(1 2)');",
      "SET @g1 = 'LINESTRING(0 0,1 1)';",
      "SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Covers(t1.g, t2.g);",
      "SELECT COUNT(*) FROM t WHERE g ~= 'POINT EMPTY'::geometry;",
      "SELECT ST_Distance('MULTIPOINT((1 0),(0 0))'::geometry, "
      "'POINT(-2 0)'::geometry);",
  };
  for (const char* text : statements) {
    auto first = Parse(text);
    ASSERT_NE(first, nullptr) << text;
    const std::string printed = PrintStatement(*first);
    auto second = ParseStatement(printed);
    ASSERT_TRUE(second.ok()) << printed;
    EXPECT_EQ(PrintStatement(*second.value()), printed) << text;
  }
}

// strtod reads 1e309 as inf, which would print as `inf`, a column name.
TEST(Parser, RejectsOutOfRangeNumbers) {
  for (const char* text :
       {"SELECT COUNT(*) FROM t1 JOIN t2 ON ST_DWithin(t1.g, t2.g, 1e309);",
        "SELECT -1e309;", "SET @d = 2e400;"}) {
    EXPECT_FALSE(ParseStatement(text).ok()) << text;
  }
  auto finite = Parse("SELECT 1e308, -1.5e-300;");
  ASSERT_NE(finite, nullptr);
  EXPECT_EQ(PrintStatement(*finite), "SELECT 1e+308, -1.5e-300;");
}

// The tree, every node and field, as text.
std::string Dump(const Expr& e) {
  std::string out = "(" + std::to_string(static_cast<int>(e.kind)) + " '" +
                    e.text + "' " + FormatCoord(e.number) + " " +
                    (e.bool_value ? "t" : "f") + " " + e.table + "." + e.name;
  for (const ExprPtr& arg : e.args) out += " " + Dump(*arg);
  return out + ")";
}

// Operands whose own operators bind looser than the one around them: the
// printer must keep their parentheses, or the text reads back as another
// tree (or not at all).
TEST(Printer, KeepsTheTreeOfNestedOperators) {
  const char* statements[] = {
      "SELECT (NOT a)::geometry;",
      "SELECT (-3)::geometry;",
      "SELECT (a ~= b)::geometry;",
      "SELECT ((a) IS UNKNOWN)::geometry;",
      "SELECT a ~= (b ~= c);",
      "SELECT a ~= ((b) IS UNKNOWN);",
      "SELECT (COUNT);",
      "SELECT (count(1)), COUNT;",
      "SELECT (COUNT ~= a);",
      "SELECT COUNTS, a ~= NOT b, -3 ~= a, 3::geometry, (a AND b)::geometry;",
  };
  for (const char* text : statements) {
    auto first = Parse(text);
    ASSERT_NE(first, nullptr) << text;
    const std::string printed = PrintStatement(*first);
    auto second = ParseStatement(printed);
    ASSERT_TRUE(second.ok()) << text << " printed as " << printed;
    ASSERT_EQ(first->select_list.size(), second.value()->select_list.size());
    for (size_t i = 0; i < first->select_list.size(); ++i) {
      EXPECT_EQ(Dump(*second.value()->select_list[i]),
                Dump(*first->select_list[i]))
          << text << " printed as " << printed;
    }
  }
}

TEST(Printer, ExpressionForms) {
  auto s = Parse(
      "SELECT COUNT(*) FROM t1 JOIN t2 ON NOT (ST_Within(t1.g, t2.g));");
  EXPECT_EQ(PrintExpr(*s->condition), "NOT (ST_Within(t1.g, t2.g))");
}

TEST(Parser, ExprClone) {
  auto s = Parse("SELECT ST_Covers(ST_GeomFromText(@a), 'POINT(1 1)');");
  const ExprPtr copy = s->select_list[0]->Clone();
  EXPECT_EQ(PrintExpr(*copy), PrintExpr(*s->select_list[0]));
}

}  // namespace
}  // namespace spatter::sql
