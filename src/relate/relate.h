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
//    reached site, FaultState::Fire per fired id), and a record keeps the
//    tally of its run, which a hit applies the same way; so fault hits,
//    coverage traces, captures and counters end exactly as a kernel run
//    leaves them, whatever the log keeps. Only the metrics differ:
//    `relate.full` counts kernel runs, `relate.memo.hit` the replays. The
//    kernel never calls Relate, and a load statement's capture
//    (fuzz::LoadDatabase) sees an applied tally as the kernel's hits.
//  - Log: every kernel run appends one record (a header word with the
//    key's size, the matrix and tally, then the key) to a per-thread ring
//    of 64K words (512 KiB), the oldest overwritten first; a record larger
//    than the ring is not kept. An index of 16,384 slots, chosen by the
//    key's hash, holds the position of the last record logged at each. A
//    call hits when its slot names a record still in the ring (at most 64K
//    words appended from its first word on) whose key equals the call's
//    word for word; any other call runs the kernel and repoints the slot.
//    A hit on a record older than half the ring re-appends it at the head,
//    so a pair that recurs (SDB1's, across an iteration's queries) outlives
//    the pairs related once (each AEI query's affine image). Two keys that
//    share a slot evict each other's index entry, which costs a kernel
//    run, never a wrong answer. The log and index are allocated on a
//    thread's first full-path call, at their final sizes.
// The kernel takes its operands from a second per-thread cache, keyed by
// one operand's content, since each AEI query relates a fresh affine image
// whose pairs the memo cannot answer but whose operands recur: in an
// image join each operand takes part in several kernel runs.
//  - Key: the memo key's two fault words (the null flag and
//    FaultState::EnabledMask) and the operand's AppendKey words, compared
//    word for word on a hit, never its address. The hash only picks an
//    index slot. `relate.operand.hit` counts the kernel operands found.
//  - Entry: what the kernel derives from the operand alone. Its
//    PreparedOperand (point_locator.h), with each polygon's interior-point
//    witness stored as a point, so nothing refers to the geometry; its
//    noder input and self cuts (algo::FindSelfCuts: its segments and
//    points intersected with each other, per element in partner order);
//    and, each filled on first use, the location, areal location and
//    Tally delta of each of its own segment ends, isolated points and
//    whole-segment midpoints, located in itself.
//  - Why a hit changes nothing: the entry holds only functions of the
//    key. The noder joins cached self cuts and the cross pairs it finds
//    in the order its one-shot form finds them (algo::NodeOperands), so
//    edges, nodes and node order are unchanged. The kernel reads an own
//    location for a node the noder registered from that operand's
//    endpoint or point (the node holds its bits) and for the midpoint of
//    an edge that is a whole, unmoved segment of that operand (edge and
//    segment agree bit for bit); the slot holds what Locate returned and
//    added to its tally for that very point under the key's enabled set,
//    so the sum of the tallies is the same. Every other point is located.
//  - Memory: 64 slots, each miss taking the next in turn (the oldest
//    first), and an index of 256 slots by key hash. The slot array is
//    allocated on a thread's first kernel run; a slot's buffers grow to
//    the largest operand it has held and are reused after that. An
//    operand of more than 64 AppendKey words (at most 31 coordinates) is
//    prepared afresh instead, uncached. A cached operand's arrays take
//    under 45 KiB, 29 KiB of it the worst case of 1,860 self cuts, and a
//    buffer grown for one holds less than twice that, so an entry stays
//    under 90 KiB and the cache under 6 MiB per thread. At the end of the
//    `aei` N=40 run (seeds 4242 and 977) it holds 560 and 553 KiB, and no
//    operand was too large.
// RelateUnmemoized is the same two stages with the kernel run every time,
// on operands prepared afresh, each of whose points it locates: the
// reference tests and benches hold Relate to.
// Once its per-thread buffers are warm (operands, noder input and result,
// interior-point scanlines, the memo's key, each operand-cache slot), a
// call that fires no fault allocates nothing, whichever stage answers it,
// a memo hit that moves its record and an operand-cache miss into a slot
// that held an operand at least as large included (relate_alloc_test).
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

/// Relate without the memo and the operand cache: the kernel runs on
/// every full-path call, on operands prepared for the call. Relate returns
/// what this returns, fires the same fault ids and hits the same coverage
/// sites the same number of times.
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
