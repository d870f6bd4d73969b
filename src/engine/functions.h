// Spatial function registry: names, per-dialect availability, argument
// arity, and implementations. The per-dialect availability table is the
// root of the "expected discrepancies" that break naive differential
// testing (e.g. ST_Covers exists only in PostGIS and DuckDB Spatial).
#ifndef SPATTER_ENGINE_FUNCTIONS_H_
#define SPATTER_ENGINE_FUNCTIONS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/dialect.h"
#include "engine/value.h"
#include "faults/fault.h"

namespace spatter::engine {

struct FunctionContext {
  Dialect dialect = Dialect::kPostgis;
  const faults::FaultState* faults = nullptr;
};

/// Shape of the extra (non-geometry) argument of a predicate, used by the
/// fuzzer's query-template instantiation.
enum class PredicateExtra {
  kNone,      ///< pred(g1, g2)
  kDistance,  ///< pred(g1, g2, d)
  kPattern,   ///< pred(g1, g2, 'T*F**F***')
};

/// The arguments of one call: pointers to values the caller owns (table
/// rows, a compiled statement's literals and results), so passing an
/// argument copies no Value.
class ArgList {
 public:
  ArgList(const Value* const* values, size_t size)
      : values_(values), size_(size) {}
  const Value& operator[](size_t i) const { return *values_[i]; }
  size_t size() const { return size_; }

 private:
  const Value* const* values_;
  size_t size_;
};

struct FunctionDef {
  const char* name;       ///< canonical name, e.g. "ST_Covers"
  uint8_t dialects;       ///< availability bitmask (DialectBit)
  int min_args;
  int max_args;
  bool is_predicate;      ///< boolean topological relationship function
  PredicateExtra extra;   ///< template shape when is_predicate
  Result<Value> (*impl)(const FunctionContext&, const ArgList&);
};

/// Full registry in stable order.
const std::vector<FunctionDef>& AllFunctions();

/// Case-insensitive lookup; SQL Server method names ("STIntersects") are
/// normalized to canonical names. Returns nullptr when unknown.
const FunctionDef* FindFunction(const std::string& name);

/// The "engine_fn" coverage site of `fn`, an entry of AllFunctions().
size_t FunctionCoverageSite(const FunctionDef& fn);

/// Lookup that also enforces dialect availability.
Result<const FunctionDef*> ResolveFunction(const std::string& name,
                                           Dialect dialect);

/// Topological-relationship predicates available in a dialect (the
/// <TopoRlt> candidate list of the paper's query template, sourced from
/// "SDBMS user manuals" — here, from the registry).
std::vector<const FunctionDef*> PredicatesFor(Dialect dialect);

/// Coerces a Value to geometry, parsing WKT strings and applying the
/// dialect's validity policy (strict dialects reject invalid polygons and
/// GEOMETRYCOLLECTIONs whose areal elements' interiors intersect). The
/// algo::CheckValid part is skipped for a value marked valid_checked; the
/// collection check, which hits relate coverage, always runs.
Result<std::shared_ptr<const geom::Geometry>> ToGeometry(
    const FunctionContext& ctx, const Value& v);

/// ToGeometry as a geometry Value, marked valid_checked under a strict
/// dialect (INSERT into a geometry column, `::geometry`).
Result<Value> CoerceGeometry(const FunctionContext& ctx, const Value& v);

/// The `~=` operator (PostGIS "same as": equal bounding boxes), including
/// its injected index-related behaviours live in the executor; this is the
/// plain evaluation.
Result<Value> EvalSameAs(const FunctionContext& ctx, const Value& lhs,
                         const Value& rhs);

}  // namespace spatter::engine

#endif  // SPATTER_ENGINE_FUNCTIONS_H_
