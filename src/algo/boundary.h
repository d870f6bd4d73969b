// Combinatorial boundary of a geometry (ST_Boundary), with the OGC mod-2
// rule for multi-curves.
#ifndef SPATTER_ALGO_BOUNDARY_H_
#define SPATTER_ALGO_BOUNDARY_H_

#include "geom/geometry.h"

namespace spatter::algo {

/// Computes the boundary:
///  - POINT/MULTIPOINT       -> GEOMETRYCOLLECTION EMPTY
///  - LINESTRING             -> MULTIPOINT of the two endpoints
///                              (empty when closed)
///  - MULTILINESTRING        -> MULTIPOINT of points occurring as element
///                              endpoints an odd number of times (mod-2)
///  - POLYGON                -> LINESTRING (shell only) or MULTILINESTRING
///  - MULTIPOLYGON           -> MULTILINESTRING of all rings
///  - GEOMETRYCOLLECTION     -> union of element boundaries, mod-2 applied
///                              across all line elements (the semantics the
///                              GEOS developers said they want instead of
///                              "last-one-wins"; see paper Listing 6)
geom::GeomPtr Boundary(const geom::Geometry& g);

/// Boundary(g)->Dimension() without building the boundary: 1 when some
/// polygon has a non-empty ring, else 0 when some endpoint of the open
/// lines occurs an odd number of times (grouped under Coord::operator<, as
/// Boundary groups them), else -1. Both apply one per-element rule. A warm
/// call allocates nothing unless an endpoint is NaN.
int BoundaryDimension(const geom::Geometry& g);

}  // namespace spatter::algo

#endif  // SPATTER_ALGO_BOUNDARY_H_
