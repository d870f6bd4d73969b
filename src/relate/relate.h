// The DE-9IM relate computer: evaluates R(g1, g2) of Definition 2.3 for
// arbitrary 2D geometries, including MULTI and MIXED collections and EMPTY
// components.
//
// Algorithm (DESIGN.md §2): node the combined linework of both geometries,
// then classify every node (dim 0) and every split-edge midpoint (dim 1)
// against both geometries with the point locator; dimension-2 entries are
// derived from areal piece classifications plus per-polygon interior-point
// witnesses.
//
// Relate runs in two stages. The front runs on every call: the crash check
// (its depth walk only when kGeosCrashRelateNestedGc is enabled), the
// empty-operand exits and the envelope pre-filter. An exit fills the
// exterior row or column from each operand's point-set dimension and its
// boundary's dimension, both by walking the operand (the latter is
// algo::BoundaryDimension, which builds no boundary geometry). The
// pre-filter needs envelopes apart by
// more than 16 * kDerivedEps * max(1, the largest |coordinate| of either):
// the kernel's tolerance scales with the coordinates (OnSegment accepts a
// point kDerivedEps * |coordinate| past a segment's end), so a fixed margin
// would call touching pairs at large magnitudes disjoint. Under faults the
// pre-filter also skips top-level collections and operands with an EMPTY
// element, whose self-classification a fault can change. Any other pair
// goes to the full path (the kernel), through a per-thread memo:
//  - Key: everything the kernel reads. That is both operands' structure
//    (the type tag at every level, point, ring and element counts), their
//    coordinates as raw bits (so 0.0 and -0.0, or two NaN payloads, are
//    different keys), and the enabled fault set (FaultState::EnabledMask,
//    not the state's address; faults == nullptr has its own key). The
//    kernel's tolerance is a constant, so it is no part of the key. A hit
//    needs the whole key to be equal; the hash only picks the slot.
//  - Replay: the kernel counts what it does besides its matrix in a
//    relate::Tally (point_locator.h): how often it reached each of its
//    eight coverage sites and which of its two faults it fired. A kernel
//    run applies its tally once (CoverageRegistry::Hit(site, n) per
//    reached site, FaultState::Fire per fired id), and an entry keeps the
//    tally of the run it was admitted with, which a hit applies the same
//    way; so fault hits, coverage traces, captures and counters end
//    exactly as a kernel run leaves them. Only the metrics differ:
//    `relate.full` counts kernel runs, `relate.memo.hit` the replays. The
//    kernel never calls Relate, and a load statement's capture
//    (fuzz::LoadDatabase) sees an applied tally as the kernel's hits.
//  - Budget: a key is admitted on its second sighting (a 4,096-slot table
//    of key hashes decides, and never answers a lookup), and one thread's
//    memo holds at most 256 KiB of key words in at most 2,048 entries; it
//    is flushed when the next admission would exceed either
//    (`relate.memo.admit`, `relate.memo.flush`).
//  - Staging: each first sighting's key, matrix and tally are written to a
//    per-thread ring of 32K words (256 KiB), the oldest overwritten first,
//    and the filter slot keeps the record's ring position beside the hash.
//    A second sighting whose staged key is still in the ring and equal
//    word for word is admitted from it with no kernel run
//    (`relate.memo.staged`); one whose record was overwritten runs the
//    kernel. A flush forgets the ring too. Staging changes no admission,
//    hit or flush, only how many kernel runs admissions take.
//  - The memo, its filter and its ring are allocated on a thread's first
//    full-path call, all at their final sizes.
// RelateUnmemoized is the same two stages with the kernel run every time:
// the reference tests and benches hold Relate to.
// Once its per-thread buffers are warm (operands, noder input and result,
// interior-point scanlines, the memo's key), a call that fires no fault
// allocates nothing, whichever stage answers it, a staged admission
// included (relate_alloc_test).
#ifndef SPATTER_RELATE_RELATE_H_
#define SPATTER_RELATE_RELATE_H_

#include "common/status.h"
#include "faults/fault.h"
#include "geom/geometry.h"
#include "relate/im_matrix.h"

namespace spatter::relate {

/// Computes the DE-9IM matrix of (a, b) under the enabled set of `faults`
/// (null: no faults). Fails with StatusCode::kCrash when the
/// kGeosCrashRelateNestedGc fault fires (collections nested >= 3 deep).
Result<IntersectionMatrix> Relate(const geom::Geometry& a,
                                  const geom::Geometry& b,
                                  const faults::FaultState* faults = nullptr);

/// Relate without the memo: the kernel runs on every full-path call.
/// Relate returns what this returns, fires the same fault ids and hits the
/// same coverage sites the same number of times.
Result<IntersectionMatrix> RelateUnmemoized(
    const geom::Geometry& a, const geom::Geometry& b,
    const faults::FaultState* faults = nullptr);

/// True when some element of g, at any nesting depth, is EMPTY. Such
/// inputs skip the envelope pre-filter under faults, Intersects keys the
/// kGeosGcEmptyElementIntersects fault on them, and the engine's touches
/// keys kMysqlTouchesEmptyCollection on them.
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
