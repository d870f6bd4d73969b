// AST for the SQL subset Spatter emits and the paper's listings use:
// CREATE TABLE / CREATE INDEX / INSERT / SET / SELECT COUNT(*) JOIN /
// SELECT ... WHERE / scalar SELECT.
#ifndef SPATTER_SQL_AST_H_
#define SPATTER_SQL_AST_H_

#include <memory>
#include <string>
#include <vector>

namespace spatter::sql {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Expression node. A single struct with a kind tag keeps the parser and
/// evaluator compact; only the fields relevant to the kind are populated.
struct Expr {
  enum class Kind {
    kStringLiteral,   ///< 'LINESTRING(...)'       -> text
    kNumberLiteral,   ///< 3, 0.5, -2              -> number
    kBoolLiteral,     ///< true / false            -> bool_value
    kVarRef,          ///< @g1                     -> name
    kColumnRef,       ///< t1.g or g               -> table (optional), name
    kFuncCall,        ///< ST_Covers(a, b)         -> name, args
    kCastGeometry,    ///< expr::geometry          -> args[0]
    kSameAs,          ///< a ~= b                  -> args[0], args[1]
    kNot,             ///< NOT expr                -> args[0]
    kIsUnknown,       ///< expr IS UNKNOWN / IS NULL -> args[0]
    kAnd,             ///< a AND b                 -> args[0], args[1]
    kOr,              ///< a OR b                  -> args[0], args[1]
  };

  Kind kind;
  std::string text;        // string literal payload
  double number = 0.0;     // numeric literal payload
  bool bool_value = false; // boolean literal payload
  std::string table;       // column qualifier
  std::string name;        // variable, column, or function name
  std::vector<ExprPtr> args;

  ExprPtr Clone() const;

  static ExprPtr String(std::string s);
  static ExprPtr Number(double v);
  static ExprPtr Bool(bool v);
  static ExprPtr Var(std::string name);
  static ExprPtr Column(std::string table, std::string name);
  static ExprPtr Func(std::string name, std::vector<ExprPtr> args);
  static ExprPtr Cast(ExprPtr inner);
  static ExprPtr MakeSameAs(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeNot(ExprPtr inner);
  static ExprPtr MakeIsUnknown(ExprPtr inner);
  static ExprPtr MakeAnd(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeOr(ExprPtr lhs, ExprPtr rhs);
};

/// One parsed statement.
struct Statement {
  enum class Kind {
    kCreateTable,       ///< CREATE TABLE t (cols...): table, columns
    kCreateIndex,       ///< CREATE INDEX i ON t USING GIST (col)
    kDropTable,         ///< DROP TABLE t
    kInsert,            ///< INSERT INTO t (cols) VALUES (rows...)
    kSet,               ///< SET name = expr  /  SET @var = expr
    kSelectCountJoin,   ///< SELECT COUNT(*) FROM t1 JOIN t2 ON expr
    kSelectCountWhere,  ///< SELECT COUNT(*) FROM t [WHERE expr]
    kSelectScalar,      ///< SELECT expr[, expr...] (no FROM)
  };

  struct ColumnDef {
    std::string name;
    std::string type;  // "int" | "geometry"
  };

  Kind kind;
  std::string table;    // primary table
  std::string table2;   // join partner
  std::string index_name;
  std::vector<ColumnDef> columns;       // CREATE TABLE
  std::vector<std::string> insert_cols; // INSERT column list
  std::vector<std::vector<ExprPtr>> rows;  // INSERT VALUES
  std::string set_name;                 // SET target (var or setting)
  ExprPtr set_value;
  ExprPtr condition;                    // ON / WHERE expression
  /// Optional row filter on the primary join table — the derived-table
  /// form `FROM (SELECT * FROM t1 WHERE filter1) JOIN t2 ON cond`. Built
  /// in-memory by the EET push-through-subquery transformation; rows
  /// whose filter does not evaluate TRUE are excluded before the pair
  /// loop.
  ExprPtr filter1;
  std::vector<ExprPtr> select_list;     // scalar SELECT expressions
};

using StatementPtr = std::unique_ptr<Statement>;

/// Appends to `*key` a byte string that two statements share exactly when
/// their trees are equal field for field, number literals compared by
/// their bits: -0 and 0 differ, and so do NaNs of other payloads. Printed
/// SQL is no such key, since FormatCoord prints both zeros as 0 and every
/// NaN alike.
void AppendKey(const Statement& stmt, std::string* key);

}  // namespace spatter::sql

#endif  // SPATTER_SQL_AST_H_
