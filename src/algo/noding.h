// Segment noding: splits an arbitrary set of tagged segments at every
// mutual intersection (including collinear overlaps) so the output edges
// only meet at endpoints. This is the arrangement substrate shared by the
// DE-9IM relate computer and the polygonizer.
//
// Noding is two steps: finding each segment's cut points, by testing
// every candidate pair, in partner-index order (the order of the segments
// it meets); then merging endpoints and cuts onto nodes and splitting each
// segment at its cuts. NodeSegments is the two in a row.
// Relate nodes two operands with NodeOperands instead: each operand's
// cuts on itself (FindSelfCuts) depend on that operand alone, so relate
// keeps them with the operand and finds only the cross pairs on each
// call. An operand lists its segments, then its isolated points as
// degenerate segments, and NodeOperands nodes the concatenation
// [A segments, B segments, A points, B points]: every cut list is joined
// in that partner order, A's segments, B's segments, A's points, B's
// points, so edges, nodes and node order are NodeSegments' over the
// concatenation, bit for bit.
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
//    scratch, and the overloads that write into a caller's result reuse
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
// a linear merger; noding_test keeps that reference and compares against
// it on seeded segment soups, and NodeOperands against NodeSegments.
#ifndef SPATTER_ALGO_NODING_H_
#define SPATTER_ALGO_NODING_H_

#include <cstdint>
#include <vector>

#include "geom/coordinate.h"
#include "geom/envelope.h"

namespace spatter::algo {

/// Input segment with a source tag, carried to its edges (the
/// polygonizer and relate use 0 for everything).
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

/// NodingResult::node_origins of a node a cut registered.
inline constexpr uint32_t kCutOrigin = UINT32_MAX;

struct NodingResult {
  std::vector<NodedEdge> edges;
  /// Unique node coordinates (all edge endpoints after eps-merging).
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

/// NodeSegments over [a.segments, b.segments, a.points, b.points], from
/// each operand's self cuts (FindSelfCuts at the same `eps`) and the cross
/// pairs it finds itself; bit-identical to it in edges, nodes and node
/// order. `a` and `b` may be the same operand.
void NodeOperands(const NodingOperand& a, const NodingOperand& b, double eps,
                  NodingResult* result);

}  // namespace spatter::algo

#endif  // SPATTER_ALGO_NODING_H_
