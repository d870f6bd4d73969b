// WKT (Well-Known Text) serialization.
#ifndef SPATTER_GEOM_WKT_WRITER_H_
#define SPATTER_GEOM_WKT_WRITER_H_

#include <string>

#include "geom/geometry.h"

namespace spatter::geom {

/// Serializes `g` to OGC WKT. Empty geometries render as "<TYPE> EMPTY";
/// empty elements inside collections render as "EMPTY" (multipoints) or the
/// typed form (mixed collections), matching PostGIS output conventions.
std::string WriteWkt(const Geometry& g);

/// Turns `g` into what ReadWkt(WriteWkt(g)) returns, when the round trip
/// only normalizes it: each -0 coordinate becomes +0, as FormatCoord prints
/// it. Returns false, with `g` partly normalized, when the round trip would
/// change `g` otherwise or reject its text:
///   - a coordinate is not finite (ReadWkt rejects inf and nan);
///   - a polygon has rings but an empty shell (it prints as POLYGON EMPTY,
///     and its holes are lost);
///   - a hole is empty (it prints as "()", which ReadWkt rejects);
///   - a MULTI* element has the wrong type (it prints without its tag).
bool NormalizeForWkt(Geometry* g);

}  // namespace spatter::geom

#endif  // SPATTER_GEOM_WKT_WRITER_H_
