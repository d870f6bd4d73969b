// Test-case data model: database specifications and query templates
// (paper Figure 5). Specs are plain WKT/SQL data so they can be printed as
// the two statement sequences Spatter records for each discrepancy.
#ifndef SPATTER_FUZZ_TESTCASE_H_
#define SPATTER_FUZZ_TESTCASE_H_

#include <string>
#include <vector>

#include "engine/functions.h"
#include "sql/ast.h"

namespace spatter::fuzz {

/// Which test oracle judged (or should judge) a test case. Lives in the
/// data model rather than oracles.h so layers that only carry the value —
/// the corpus codec, the wire protocol — need no oracle machinery.
enum class OracleKind : uint8_t {
  kAei,            ///< canonicalize + affine transform, compare counts
  kCanonicalOnly,  ///< identity matrix: canonicalization as the only change
  kDifferential,   ///< same inputs on two SDBMS dialects
  kIndex,          ///< same engine with and without a GiST index
  kTlp,            ///< P + NOT P + P IS UNKNOWN must cover the cross join
  /// Not a configurable oracle: attribution for crashes hit during input
  /// construction (generator/derivation), which belong to no judge. Keeps
  /// per-oracle accounting honest when AEI is not even in the suite.
  kGeneration,
  /// Equivalent-expression transformation: the query condition is rewritten
  /// into semantics-preserving variants (tautology guards, double negation,
  /// geometry-aware wraps) that must all return the base count. Appended
  /// after kGeneration so persisted codec/wire values keep their meaning.
  kEet,
};

/// Number of OracleKind values (for range validation on decode paths).
inline constexpr uint8_t kNumOracleKinds = 7;

const char* OracleKindName(OracleKind k);

/// One generated table: a name and the WKT of each row's geometry.
struct TableSpec {
  std::string name;
  std::vector<std::string> rows;  // WKT per row
};

/// The statements that build one table, in load order: `ddl` (CREATE
/// TABLE, then CREATE INDEX when indexed) before `inserts`, one INSERT per
/// row, quotes in its WKT doubled. DatabaseSpec::ToSql prints through
/// RenderTable; LoadDatabase runs the same DDL and inserts each row as the
/// value its INSERT's literal coerces to, so a printed reproducer replays
/// what a check loaded.
struct TableSql {
  std::vector<std::string> ddl;
  std::vector<std::string> inserts;  ///< aligned with TableSpec::rows
};

TableSql RenderTable(const TableSpec& table, bool with_index);
/// RenderTable's `ddl` for a table named `table`.
std::vector<std::string> RenderDdl(const std::string& table, bool with_index);

/// One generated spatial database (SDB1 or SDB2).
struct DatabaseSpec {
  std::vector<TableSpec> tables;
  bool with_index = false;

  /// Renders CREATE TABLE / CREATE INDEX / INSERT statements.
  std::vector<std::string> ToSql() const;
  size_t TotalRows() const;
};

/// Instantiated query template:
///   SELECT COUNT(*) FROM <table1> JOIN <table2> ON <TopoRlt>.
struct QuerySpec {
  std::string table1;
  std::string table2;
  std::string predicate;                 // canonical function name or "~="
  engine::PredicateExtra extra = engine::PredicateExtra::kNone;
  double distance = 0.0;                 // kDistance predicates
  std::string pattern;                   // kPattern predicates

  /// The query as a statement: every oracle executes this tree, so no
  /// query is printed and parsed back on the check path.
  sql::StatementPtr ToStatement() const;
  /// sql::PrintStatement of ToStatement(), for reproducers and reports.
  std::string ToSql() const;
};

}  // namespace spatter::fuzz

#endif  // SPATTER_FUZZ_TESTCASE_H_
