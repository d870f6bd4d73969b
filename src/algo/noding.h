// Segment noding: splits an arbitrary set of tagged segments at every
// mutual intersection (including collinear overlaps) so the output edges
// only meet at endpoints. This is the arrangement substrate shared by the
// DE-9IM relate computer and the polygonizer.
//
// Input sizes are small. Over the first 9 rounds of perfbench's `aei-n40`
// workload (seed 4242), 90% of the 282,464 calls node fewer than 16
// segments and none node 64 or more; a call averages 49 candidate pairs
// (21 pass the box test), 13.5 nodes and 16 edges. On `suite-j3` no call
// reaches 32 segments. An x-sweep has little to prune at these sizes, so
// the noder keeps the all-pairs candidate loop and cuts constant factors:
//  - cuts go into one flat list in discovery order and are then
//    counting-sorted by segment, which keeps each segment's cut order;
//  - boxes, cuts and the per-segment split list live in per-thread
//    scratch, so a call allocates only its result;
//  - the node merger memoizes lookups on exact coordinates. Nodes are only
//    appended, so the first node matching a coordinate never changes once
//    it exists. The memo treats -0.0 as 0.0; NaN never hits it, and a
//    coordinate that does not match itself (NaN, infinity) registers a
//    fresh node on every lookup, as a linear scan would.
// The output is bit-identical to the straightforward all-pairs noder with
// a linear merger; noding_test keeps that reference and compares against
// it on seeded segment soups.
#ifndef SPATTER_ALGO_NODING_H_
#define SPATTER_ALGO_NODING_H_

#include <cstdint>
#include <vector>

#include "geom/coordinate.h"

namespace spatter::algo {

/// Input segment with a source tag (relate uses 0 = geometry A,
/// 1 = geometry B; the polygonizer uses 0 for everything).
struct TaggedSegment {
  geom::Coord a;
  geom::Coord b;
  int src = 0;
};

/// Output edge: a sub-segment of exactly one input segment, crossing no
/// other output edge except at shared endpoints.
struct NodedEdge {
  geom::Coord a;
  geom::Coord b;
  int src = 0;
  size_t input_index = 0;  ///< index of the originating TaggedSegment
};

struct NodingResult {
  std::vector<NodedEdge> edges;
  /// Unique node coordinates (all edge endpoints after eps-merging).
  std::vector<geom::Coord> nodes;
};

/// Nodes all segments pairwise (O(n^2) candidate pairs with an envelope
/// pre-filter; campaign inputs are tiny). Nearby intersection points within
/// `eps` are merged onto a single node, the first registered one, so
/// concurrent crossings from different pairs agree. Nodes are listed in
/// registration order; edges are listed by input segment, each split in
/// order along its segment.
NodingResult NodeSegments(const std::vector<TaggedSegment>& segments,
                          double eps);

}  // namespace spatter::algo

#endif  // SPATTER_ALGO_NODING_H_
