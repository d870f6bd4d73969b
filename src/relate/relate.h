// The DE-9IM relate computer: evaluates R(g1, g2) of Definition 2.3 for
// arbitrary 2D geometries, including MULTI and MIXED collections and EMPTY
// components.
//
// Algorithm (DESIGN.md §2): node the combined linework of both geometries,
// then classify every node (dim 0) and every split-edge midpoint (dim 1)
// against both geometries with the point locator; dimension-2 entries are
// derived from areal piece classifications plus per-polygon interior-point
// witnesses.
#ifndef SPATTER_RELATE_RELATE_H_
#define SPATTER_RELATE_RELATE_H_

#include "common/status.h"
#include "faults/fault.h"
#include "geom/geometry.h"
#include "geom/predicates.h"
#include "relate/im_matrix.h"

namespace spatter::relate {

struct RelateOptions {
  const faults::FaultState* faults = nullptr;
  /// Predicate tolerance for derived points (noded vertices, midpoints).
  double eps = geom::kDerivedEps;
};

/// Computes the DE-9IM matrix of (a, b). Fails with StatusCode::kCrash when
/// the kGeosCrashRelateNestedGc fault fires (collections nested >= 3 deep).
Result<IntersectionMatrix> Relate(const geom::Geometry& a,
                                  const geom::Geometry& b,
                                  const RelateOptions& opts = {});

/// True when some element of g, at any nesting depth, is EMPTY. Such
/// inputs skip the envelope pre-filter under faults, and Intersects keys
/// the kGeosGcEmptyElementIntersects fault on them.
bool HasEmptyElement(const geom::Geometry& g);

/// Maximum collection nesting depth (a basic geometry has depth 0).
int NestingDepth(const geom::Geometry& g);

/// Dimension as seen by the dimension processor. Equals g.Dimension()
/// unless kGeosMixedDimensionFirstElement fires, in which case MIXED
/// geometries report their first element's dimension (the injected GEOS
/// dimension-processor bug).
int EffectiveDimension(const geom::Geometry& g,
                       const faults::FaultState* faults);

}  // namespace spatter::relate

#endif  // SPATTER_RELATE_RELATE_H_
