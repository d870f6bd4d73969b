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
//    scratch, and the overload that writes into a caller's result reuses
//    its capacity, so a warm caller allocates nothing (relate keeps one
//    result per thread; the polygonizer takes the returning form);
//  - the node merger scans the nodes for the first within eps, with no
//    memo in front. Replayed on the 85,276 noding inputs of an `aei` run
//    at N=40 (all dialects, seed 4242; 7.9 segments, 36 lookups and 11.2
//    nodes per call on average) in a Release build on a shared 4-core
//    x86-64 host, a hash memo on exact coordinates made every size
//    slower: 1.7 instead of 1.3 us a call under 32 lookups, 20 instead of
//    17 us at 128 to 191. BM_RelatePolygonPair/8, /32 and /128 ran in 8.8,
//    50 and 584 us with the scan alone and in 10.0, 56 and 740 us with the
//    memo above 64 lookups (medians of 5).
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

/// The same, written into `*result` (its previous contents replaced),
/// reusing the capacity of its vectors.
void NodeSegments(const std::vector<TaggedSegment>& segments, double eps,
                  NodingResult* result);

}  // namespace spatter::algo

#endif  // SPATTER_ALGO_NODING_H_
