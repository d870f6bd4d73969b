// Named topological relationship predicates (paper §2.2), derived from the
// DE-9IM matrix. Several injected GEOS bug hooks live here because the real
// bugs lived in the shared library's predicate fast paths.
#ifndef SPATTER_RELATE_NAMED_PREDICATES_H_
#define SPATTER_RELATE_NAMED_PREDICATES_H_

#include "common/status.h"
#include "faults/fault.h"
#include "geom/geometry.h"

namespace spatter::relate {

// Every predicate evaluates under the enabled set of `faults` (null: no
// faults), the one argument relate::Relate takes too.

Result<bool> Intersects(const geom::Geometry& a, const geom::Geometry& b,
                        const faults::FaultState* faults = nullptr);
Result<bool> Disjoint(const geom::Geometry& a, const geom::Geometry& b,
                      const faults::FaultState* faults = nullptr);
Result<bool> Within(const geom::Geometry& a, const geom::Geometry& b,
                    const faults::FaultState* faults = nullptr);
Result<bool> Contains(const geom::Geometry& a, const geom::Geometry& b,
                      const faults::FaultState* faults = nullptr);
Result<bool> Covers(const geom::Geometry& a, const geom::Geometry& b,
                    const faults::FaultState* faults = nullptr);
Result<bool> CoveredBy(const geom::Geometry& a, const geom::Geometry& b,
                       const faults::FaultState* faults = nullptr);
Result<bool> Crosses(const geom::Geometry& a, const geom::Geometry& b,
                     const faults::FaultState* faults = nullptr);
Result<bool> Overlaps(const geom::Geometry& a, const geom::Geometry& b,
                      const faults::FaultState* faults = nullptr);
Result<bool> Touches(const geom::Geometry& a, const geom::Geometry& b,
                     const faults::FaultState* faults = nullptr);
/// Topological equality (ST_Equals), not structural equality.
Result<bool> TopoEquals(const geom::Geometry& a, const geom::Geometry& b,
                        const faults::FaultState* faults = nullptr);

}  // namespace spatter::relate

#endif  // SPATTER_RELATE_NAMED_PREDICATES_H_
