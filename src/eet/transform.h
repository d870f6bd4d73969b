// Equivalent-expression transformations (EET, after Jiang et al. OSDI'24):
// semantics-preserving rewrites of a COUNT(*)-join condition. Each variant
// must return exactly the base count on a correct engine, so any divergence
// is a logic bug in a single engine — no reference implementation needed.
//
// Soundness under SQL's three-valued logic is by construction:
//   - AND-tautology  `P AND G`  requires a guard G that is TRUE whenever the
//     row's geometries coerce (ST_IsEmpty and `~=` self-compare are total on
//     coerced geometries, so G can never demote a TRUE P).
//   - OR-contradiction `P OR (C AND NOT C)` is sound for ANY guard C: the
//     parenthesized term is always FALSE or UNKNOWN, and `TRUE OR x`,
//     `FALSE OR {FALSE,UNKNOWN}`, `UNKNOWN OR {FALSE,UNKNOWN}` all preserve
//     whether the row pair is counted (only TRUE counts).
#ifndef SPATTER_EET_TRANSFORM_H_
#define SPATTER_EET_TRANSFORM_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/dialect.h"
#include "geom/geometry.h"
#include "sql/ast.h"

namespace spatter::eet {

/// One equivalence-preserving rewrite. Order is the deterministic variant
/// order the oracle walks; append only.
enum class TransformId : uint8_t {
  kDoubleNegation = 0,     ///< P -> NOT (NOT P)
  kEmptyTautology,         ///< P AND (IsEmpty(g1) OR NOT IsEmpty(g1))
  kSelfCompareGuard,       ///< P AND (g1 ~= g1)
  kHullContradiction,      ///< P OR (C AND NOT C),
                           ///<   C = ST_Intersects(g1, ST_ConvexHull(g1))
  kDistanceContradiction,  ///< P OR (C AND NOT C),
                           ///<   C = ST_DWithin(g1, g2, D) with data-aware D
  kFilterPushdown,         ///< FROM (SELECT * FROM t1 WHERE tautology) JOIN
  kNumTransforms,
};

inline constexpr int kNumEetTransforms =
    static_cast<int>(TransformId::kNumTransforms);

/// Stable identifier string ("double_negation", ...). Used in discrepancy
/// detail lines so reports name the variant that diverged.
const char* TransformName(TransformId id);

/// True when the dialect can express the rewrite: kSelfCompareGuard needs
/// the `~=` operator, kDistanceContradiction needs ST_DWithin; the rest use
/// functions available in every dialect.
bool TransformAppliesTo(TransformId id, engine::Dialect dialect);

/// Rewrites `base` (which must be kSelectCountJoin with a condition) into
/// the equivalent variant. `distance_bound` parameterizes
/// kDistanceContradiction (any value is sound; a data-aware bound makes the
/// guard exercise both truth values). Returns nullptr when the statement
/// shape does not apply.
sql::StatementPtr ApplyTransform(TransformId id, const sql::Statement& base,
                                 double distance_bound);

/// Data-aware distance bound for kDistanceContradiction: one more than the
/// largest pairwise algo::MinDistance between the two tables' WKT rows, so
/// ST_DWithin(g1, g2, D) is TRUE for every comparable pair while staying a
/// pure function of the test case (deterministic across factorizations).
double DistanceBoundFor(const std::vector<std::string>& rows1,
                        const std::vector<std::string>& rows2);
/// The same bound over rows already parsed (the rows that parse, in order).
double DistanceBoundForParsed(const std::vector<const geom::Geometry*>& rows1,
                              const std::vector<const geom::Geometry*>& rows2);

}  // namespace spatter::eet

#endif  // SPATTER_EET_TRANSFORM_H_
