#include "fuzz/testcase.h"

#include "sql/parser.h"

namespace spatter::fuzz {

const char* OracleKindName(OracleKind k) {
  switch (k) {
    case OracleKind::kAei:
      return "AEI";
    case OracleKind::kCanonicalOnly:
      return "Canonicalization";
    case OracleKind::kDifferential:
      return "Differential";
    case OracleKind::kIndex:
      return "Index";
    case OracleKind::kTlp:
      return "TLP";
    case OracleKind::kGeneration:
      return "Generation";
    case OracleKind::kEet:
      return "EET";
  }
  return "Unknown";
}

std::vector<std::string> RenderDdl(const std::string& table, bool with_index) {
  std::vector<std::string> ddl = {"CREATE TABLE " + table + " (g geometry);"};
  if (with_index) {
    ddl.push_back("CREATE INDEX idx_" + table + " ON " + table +
                  " USING GIST (g);");
  }
  return ddl;
}

TableSql RenderTable(const TableSpec& table, bool with_index) {
  TableSql sql;
  sql.ddl = RenderDdl(table.name, with_index);
  sql.inserts.reserve(table.rows.size());
  for (const auto& wkt : table.rows) {
    std::string insert = "INSERT INTO " + table.name + " (g) VALUES ('";
    for (char c : wkt) {
      insert += c;
      if (c == '\'') insert += '\'';
    }
    sql.inserts.push_back(insert + "');");
  }
  return sql;
}

std::vector<std::string> DatabaseSpec::ToSql() const {
  std::vector<std::string> out;
  for (const auto& table : tables) {
    TableSql sql = RenderTable(table, with_index);
    for (auto& stmt : sql.ddl) out.push_back(std::move(stmt));
    for (auto& stmt : sql.inserts) out.push_back(std::move(stmt));
  }
  return out;
}

size_t DatabaseSpec::TotalRows() const {
  size_t n = 0;
  for (const auto& t : tables) n += t.rows.size();
  return n;
}

sql::StatementPtr QuerySpec::ToStatement() const {
  std::vector<sql::ExprPtr> operands;
  operands.push_back(sql::Expr::Column(table1, "g"));
  operands.push_back(sql::Expr::Column(table2, "g"));
  auto stmt = std::make_unique<sql::Statement>();
  stmt->kind = sql::Statement::Kind::kSelectCountJoin;
  stmt->table = table1;
  stmt->table2 = table2;
  if (predicate == "~=") {
    stmt->condition = sql::Expr::MakeSameAs(std::move(operands[0]),
                                            std::move(operands[1]));
    return stmt;
  }
  if (extra == engine::PredicateExtra::kDistance) {
    operands.push_back(sql::Expr::Number(distance));
  } else if (extra == engine::PredicateExtra::kPattern) {
    operands.push_back(sql::Expr::String(pattern));
  }
  stmt->condition = sql::Expr::Func(predicate, std::move(operands));
  return stmt;
}

std::string QuerySpec::ToSql() const {
  return sql::PrintStatement(*ToStatement());
}

}  // namespace spatter::fuzz
