// Segment noding: splits the segments and isolated points of two operands
// at every mutual intersection (including collinear overlaps) so the
// output edges only meet at endpoints. This is the arrangement substrate
// shared by the DE-9IM relate computer and the polygonizer.
//
// Noding is two steps: finding each element's cut points, by testing
// every candidate pair, in partner order (the order of the elements it
// meets); then merging endpoints and cuts onto nodes and splitting each
// element at its cuts. An operand lists its segments, then its isolated
// points as degenerate segments. Its cuts on itself (FindSelfCuts) depend
// on that operand alone, so relate keeps them with the operand, and
// NodeOperands finds only the cross pairs on each call. NodeOperands nodes
// the concatenation [A segments, B segments, A points, B points]: every
// cut list is joined in that partner order, A's segments, B's segments,
// A's points, B's points, so edges, nodes and node order are those of
// noding the concatenation all pairs at once. The polygonizer nodes its
// linework as one operand against an empty one.
//
// Input sizes are small. Over the first 9 rounds of perfbench's `aei-n40`
// workload (seed 4242), relate nodes two operands 106,895 times: 89% of
// the calls node fewer than 16 segments and points, none 64 or more (the
// largest 34); a call averages 9.3 of them, 14.1 nodes and 16.8 edges.
// All pairs of the concatenation would be 51.6 candidates (23.8 passing
// the box test) a call, and 59% of them (69% of the box passes) pair an
// operand with itself, which relate's cached self cuts spare. An x-sweep
// has little to prune at these sizes, so the noder keeps the all-pairs
// candidate loop and cuts constant factors:
//  - cuts go into one flat list in discovery order and are then
//    counting-sorted by list, which keeps each list's cut order;
//  - boxes, cuts and the per-segment split list live in per-thread
//    scratch, and NodeOperands writes into a caller's result, reusing its
//    capacity, so a warm caller allocates nothing (relate keeps one
//    result per thread);
//  - the node merger scans the nodes for the first within eps, with no
//    memo in front. Replayed on the 85,276 noding inputs of an `aei` run
//    at N=40 (all dialects, seed 4242; 7.9 segments, 36 lookups and 11.2
//    nodes per call on average) in a Release build on a shared 4-core
//    x86-64 host, a hash memo on exact coordinates made every size
//    slower: 1.7 instead of 1.3 us a call under 32 lookups, 20 instead of
//    17 us at 128 to 191. BM_RelatePolygonPair/8, /32 and /128 ran in 8.8,
//    50 and 584 us with the scan alone and in 10.0, 56 and 740 us with the
//    memo above 64 lookups (medians of 5).
//  - a lookup of a finite coordinate equal to one looked up before
//    returns that lookup's node without a scan: nodes only append, so the
//    first node within eps of a coordinate never changes. The split takes
//    that shortcut for a cut equal to its own segment's raw endpoint, a
//    segment's end equal to its start, and a segment's start equal to the
//    previous segment's end (a ring's or a line's next segment). A NaN or
//    infinite coordinate matches no node, itself included, so its every
//    lookup scans and registers a node. Over the 9 rounds above, 66% of
//    the 2.73M cut lookups take the shortcut.
// The output is bit-identical to the straightforward all-pairs noder with
// a linear merger over the concatenation; noding_test keeps that
// reference and compares NodeOperands against it on seeded segment soups
// and edge cases.
#ifndef SPATTER_ALGO_NODING_H_
#define SPATTER_ALGO_NODING_H_

#include <cstdint>
#include <vector>

#include "geom/coordinate.h"
#include "geom/envelope.h"

namespace spatter::algo {

/// Input segment; an isolated point is the degenerate segment {p, p}.
struct TaggedSegment {
  geom::Coord a;
  geom::Coord b;
};

/// Output edge: a sub-segment of exactly one input segment, crossing no
/// other output edge except at shared endpoints.
struct NodedEdge {
  geom::Coord a;
  geom::Coord b;
  /// Index of the originating segment in the concatenation.
  size_t input_index = 0;
};

/// NodingResult::node_origins of a node a cut registered.
inline constexpr uint32_t kCutOrigin = UINT32_MAX;

struct NodingResult {
  /// Listed by input segment, each split in order along its segment.
  std::vector<NodedEdge> edges;
  /// Unique node coordinates (all edge endpoints after eps-merging), in
  /// registration order.
  std::vector<geom::Coord> nodes;
  /// For each node, what registered it: 2 * i for input segment i's start
  /// a, 2 * i + 1 for its end b (the node then holds that coordinate's
  /// bits), kCutOrigin for a cut point.
  std::vector<uint32_t> node_origins;
};

/// Cut points by list: list k's lie at cuts[start[k], start[k + 1]).
struct SegmentCuts {
  std::vector<geom::Coord> cuts;
  std::vector<uint32_t> start;
};

/// One operand of NodeOperands: its segments, then its isolated points,
/// each the degenerate segment {p, p}.
struct NodingOperand {
  std::vector<TaggedSegment> segments;
  std::vector<TaggedSegment> points;
  /// Element e: a segment, or after them a point.
  const TaggedSegment& element(size_t e) const {
    return e < segments.size() ? segments[e] : points[e - segments.size()];
  }
  /// Set by FindSelfCuts: each element's box (segments, then points) and
  /// the cuts the operand makes on itself, two lists per element e: at
  /// 2e its cuts from the operand's segments, at 2e + 1 from its points,
  /// each in partner order.
  std::vector<geom::Envelope> boxes;
  SegmentCuts self;
};

/// Finds `op`'s boxes and self cuts for tolerance `eps`.
void FindSelfCuts(double eps, NodingOperand* op);

/// Nodes [a.segments, b.segments, a.points, b.points] pairwise (O(n^2)
/// candidate pairs with an envelope pre-filter; campaign inputs are tiny),
/// from each operand's self cuts (FindSelfCuts at the same `eps`) and the
/// cross pairs it finds itself. Points within `eps` of each other merge
/// onto a single node, the first registered one, so concurrent crossings
/// from different pairs agree. Writes into `*result` (its previous
/// contents replaced), reusing the capacity of its vectors. `a` and `b`
/// may be the same operand.
void NodeOperands(const NodingOperand& a, const NodingOperand& b, double eps,
                  NodingResult* result);

}  // namespace spatter::algo

#endif  // SPATTER_ALGO_NODING_H_
