// A statement's expressions, compiled once per Engine::Execute and then
// evaluated for every row or row pair. Compiling resolves each function to
// its FunctionDef and "engine_fn" coverage site, each column reference to
// a row slot and a column index, and builds each literal and @variable
// into a Value. Evaluation then looks up no name, and each call fills an
// argument buffer it owns with pointers to its argument values, so the
// per-pair path of a join allocates and copies nothing of its own. This
// is the resolve-once, tight per-tuple loop of compiled query plans
// (T. Neumann, "Efficiently Compiling Efficient Query Plans for Modern
// Hardware", VLDB 2011), run as an interpreter.
//
// Compiling never fails and has no effects. A name that does not resolve
// (an unknown function, a function the dialect lacks, an unknown alias,
// column or variable) and a call with the wrong argument count compile to
// a node that returns that error when it is evaluated, before it
// evaluates anything below it. So errors stay where a tree-walking
// evaluator meets them: a join whose outer table is empty counts 0.
// Everything with effects (coverage hits, fault fires, WKT parsing,
// `::geometry` casts) runs at every evaluation.
#ifndef SPATTER_ENGINE_COMPILED_EXPR_H_
#define SPATTER_ENGINE_COMPILED_EXPR_H_

#include <array>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "engine/functions.h"
#include "sql/ast.h"

namespace spatter::engine {

/// The one rule for an error inside a statement's per-row, per-pair or
/// per-operand evaluation: a crash, or a missing function or operator,
/// fails the whole statement; any other error reads as UNKNOWN.
bool EndsStatement(const Status& status);

/// The aliases an expression may name, each bound to a table: slot i of a
/// RowBinding holds a row of `table[i]`. An unqualified column resolves
/// only when exactly one alias is bound.
struct Scope {
  const std::string* alias[2] = {nullptr, nullptr};
  const Table* table[2] = {nullptr, nullptr};
  int size = 0;

  Scope& Bind(const std::string& a, const Table& t) {
    alias[size] = &a;
    table[size] = &t;
    ++size;
    return *this;
  }
};

/// The rows one evaluation reads, by slot (null where nothing is bound).
using RowBinding = std::array<const Row*, 2>;

class CompiledExpr {
 public:
  /// Lowers `expr`, which must outlive the result, against `scope`,
  /// `dialect` and the `@variables` SET so far (`variables`).
  static CompiledExpr Compile(const sql::Expr& expr, const Scope& scope,
                              Dialect dialect,
                              const std::map<std::string, Value>& variables);

  /// Evaluates against `rows`. The value lives in the compiled tree (a
  /// literal, a variable, a computed result) or in a bound row, and stays
  /// valid until this node is evaluated again.
  Result<const Value*> Eval(const FunctionContext& ctx, const RowBinding& rows);

  /// True when this is a predicate applied directly to two column
  /// references qualified `q1` and `q2`: `f(q1.c, q2.c, ...)` or
  /// `q1.c ~= q2.c`, the shape a join's index and prepared paths take
  /// over. `*fn` is f, found by name whether or not the dialect has it,
  /// or null for `~=`.
  bool IsColumnPredicate(const std::string& q1, const std::string& q2,
                         const FunctionDef** fn) const;

 private:
  enum class Op {
    kValue,  // a literal or @variable, built at compile time
    kColumn,
    kCall,
    kCast,
    kSameAs,
    kNot,
    kIsUnknown,
    kAnd,
    kOr,
  };

  CompiledExpr() = default;

  /// Keeps `v`'s value as this node's result.
  Result<const Value*> Store(Result<Value> v);
  /// An AND/OR operand: nullopt for UNKNOWN (NULL, or an error the
  /// statement survives).
  Result<std::optional<bool>> Truth(const FunctionContext& ctx,
                                    const RowBinding& rows);

  Op op_ = Op::kValue;
  const sql::Expr* expr_ = nullptr;  // the source node
  /// Not OK when the node failed to resolve: Eval returns it.
  Status error_;
  /// kValue: the literal or variable; otherwise the last result.
  Value value_;
  int slot_ = 0;    // kColumn
  int column_ = 0;  // kColumn
  const FunctionDef* fn_ = nullptr;  // kCall
  size_t site_ = 0;                  // kCall: the "engine_fn" site
  std::vector<CompiledExpr> args_;
  std::vector<const Value*> argv_;  // kCall: the argument buffer
};

}  // namespace spatter::engine

#endif  // SPATTER_ENGINE_COMPILED_EXPR_H_
