// Editing functions used by the derivative strategy (paper Table 1).
// Each function derives a new geometry from k existing ones; failures are
// reported via Status so the generator can fall back to an EMPTY shape
// (Algorithm 1, lines 21-22).
#ifndef SPATTER_ALGO_EDIT_FUNCTIONS_H_
#define SPATTER_ALGO_EDIT_FUNCTIONS_H_

#include "common/status.h"
#include "geom/geometry.h"

namespace spatter::algo {

/// Replaces point `index` of a LINESTRING with `p` (0-based).
Result<geom::GeomPtr> SetPoint(const geom::Geometry& g, size_t index,
                               geom::Coord p);
/// Extracts the rings of a POLYGON as a collection of shell-only POLYGONs.
Result<geom::GeomPtr> DumpRings(const geom::Geometry& g);
/// Forces clockwise exterior rings / counter-clockwise holes.
Result<geom::GeomPtr> ForcePolygonCW(const geom::Geometry& g);
/// Nth element (1-based) of a MULTI/MIXED geometry.
Result<geom::GeomPtr> GeometryN(const geom::Geometry& g, size_t n);
/// Collection of elements of the requested basic type.
Result<geom::GeomPtr> CollectionExtract(const geom::Geometry& g,
                                        geom::GeomType type);
/// Nth point (1-based) of a LINESTRING.
Result<geom::GeomPtr> PointN(const geom::Geometry& g, size_t n);
/// Reverses coordinate order of lines / rings.
Result<geom::GeomPtr> Reverse(const geom::Geometry& g);
/// Envelope as a POLYGON (degenerate inputs yield POINT or LINESTRING).
Result<geom::GeomPtr> EnvelopeOf(const geom::Geometry& g);
/// Combines two geometries into a MULTI (same basic type) or a
/// GEOMETRYCOLLECTION.
Result<geom::GeomPtr> Collect(const geom::Geometry& a,
                              const geom::Geometry& b);

}  // namespace spatter::algo

#endif  // SPATTER_ALGO_EDIT_FUNCTIONS_H_
