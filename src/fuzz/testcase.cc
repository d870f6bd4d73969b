#include "fuzz/testcase.h"

#include "common/strings.h"

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

std::string QuerySpec::ToSql() const {
  std::string cond;
  if (predicate == "~=") {
    cond = table1 + ".g ~= " + table2 + ".g";
  } else {
    cond = predicate + "(" + table1 + ".g, " + table2 + ".g";
    if (extra == engine::PredicateExtra::kDistance) {
      cond += ", " + FormatCoord(distance);
    } else if (extra == engine::PredicateExtra::kPattern) {
      cond += ", '" + pattern + "'";
    }
    cond += ")";
  }
  return "SELECT COUNT(*) FROM " + table1 + " JOIN " + table2 + " ON " +
         cond + ";";
}

}  // namespace spatter::fuzz
