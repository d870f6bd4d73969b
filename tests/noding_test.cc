// Noder tests: crossings, T-junctions, collinear overlaps, node merging,
// and bit-for-bit agreement of NodeOperands with the all-pairs reference
// noder over the concatenation, for one operand alone (as the polygonizer
// nodes) and for two operands from their self cuts (as relate does).
#include "algo/noding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "common/rng.h"
#include "geom/envelope.h"
#include "geom/predicates.h"

namespace spatter::algo {
namespace {

using geom::Coord;

// `segments` noded as one operand against an empty one, written into
// `*result`: the polygonizer's call.
void NodeAlone(const std::vector<TaggedSegment>& segments, double eps,
               NodingResult* result) {
  NodingOperand op;
  op.segments = segments;
  FindSelfCuts(eps, &op);
  NodeOperands(op, NodingOperand(), eps, result);
}

NodingResult NodeAlone(const std::vector<TaggedSegment>& segments,
                       double eps) {
  NodingResult out;
  NodeAlone(segments, eps, &out);
  return out;
}

NodingResult Node(const std::vector<TaggedSegment>& segs) {
  return NodeAlone(segs, geom::kDerivedEps);
}

bool HasEdge(const NodingResult& r, const Coord& a, const Coord& b) {
  for (const auto& e : r.edges) {
    if ((e.a == a && e.b == b) || (e.a == b && e.b == a)) return true;
  }
  return false;
}

TEST(Noding, DisjointSegmentsPassThrough) {
  const auto r = Node({{{0, 0}, {1, 0}}, {{0, 2}, {1, 2}}});
  EXPECT_EQ(r.edges.size(), 2u);
  EXPECT_EQ(r.nodes.size(), 4u);
}

TEST(Noding, ProperCrossingSplitsBoth) {
  const auto r = Node({{{0, 0}, {2, 2}}, {{0, 2}, {2, 0}}});
  EXPECT_EQ(r.edges.size(), 4u);
  EXPECT_TRUE(HasEdge(r, {0, 0}, {1, 1}));
  EXPECT_TRUE(HasEdge(r, {1, 1}, {2, 2}));
  EXPECT_TRUE(HasEdge(r, {0, 2}, {1, 1}));
  EXPECT_TRUE(HasEdge(r, {1, 1}, {2, 0}));
  EXPECT_EQ(r.nodes.size(), 5u);
}

TEST(Noding, TJunctionSplitsOnlyCrossedSegment) {
  const auto r = Node({{{0, 0}, {4, 0}}, {{2, 0}, {2, 3}}});
  EXPECT_EQ(r.edges.size(), 3u);
  EXPECT_TRUE(HasEdge(r, {0, 0}, {2, 0}));
  EXPECT_TRUE(HasEdge(r, {2, 0}, {4, 0}));
  EXPECT_TRUE(HasEdge(r, {2, 0}, {2, 3}));
}

TEST(Noding, CollinearOverlapSplitsAtOverlapEnds) {
  const auto r = Node({{{0, 0}, {4, 0}}, {{2, 0}, {6, 0}}});
  // Segment 1: 0-2, 2-4; segment 2: 2-4, 4-6.
  EXPECT_EQ(r.edges.size(), 4u);
  EXPECT_TRUE(HasEdge(r, {0, 0}, {2, 0}));
  EXPECT_TRUE(HasEdge(r, {4, 0}, {6, 0}));
}

TEST(Noding, InputIndicesPreserved) {
  const auto r = Node({{{0, 0}, {2, 2}}, {{0, 2}, {2, 0}}});
  int from0 = 0;
  int from1 = 0;
  for (const auto& e : r.edges) {
    (e.input_index == 0 ? from0 : from1)++;
  }
  EXPECT_EQ(from0, 2);
  EXPECT_EQ(from1, 2);
}

TEST(Noding, ConcurrentCrossingsMergeNodes) {
  // Three segments through (1, 1).
  const auto r = Node({{{0, 0}, {2, 2}},
                       {{0, 2}, {2, 0}},
                       {{1, 0}, {1, 2}}});
  size_t at_center = 0;
  for (const auto& n : r.nodes) {
    if (n == Coord(1, 1)) at_center++;
  }
  EXPECT_EQ(at_center, 1u);  // merged onto a single node.
  EXPECT_EQ(r.edges.size(), 6u);
}

TEST(Noding, SharedEndpointNoSplit) {
  const auto r = Node({{{0, 0}, {1, 1}}, {{1, 1}, {2, 0}}});
  EXPECT_EQ(r.edges.size(), 2u);
  EXPECT_EQ(r.nodes.size(), 3u);
}

TEST(Noding, MidpointsOfSplitEdgesAvoidOtherGeometry) {
  // After noding, no edge midpoint may lie on another segment's edge
  // (except collinear overlaps) — the invariant the relate computer needs.
  const auto r = Node({{{0, 0}, {4, 4}}, {{0, 4}, {4, 0}}});
  for (const auto& e : r.edges) {
    const Coord mid = geom::Midpoint(e.a, e.b);
    for (const auto& f : r.edges) {
      if (f.input_index == e.input_index) continue;
      EXPECT_FALSE(geom::OnSegment(mid, f.a, f.b, geom::kDerivedEps))
          << "midpoint rests on a foreign edge";
    }
  }
}

TEST(Noding, ZeroLengthInputIgnored) {
  const auto r = Node({{{1, 1}, {1, 1}}, {{0, 0}, {2, 0}}});
  EXPECT_EQ(r.edges.size(), 1u);
}

// --- Reference noder ---------------------------------------------------------
// The straightforward noder: one cut list per segment of the
// concatenation, and a merger that rescans every node for each lookup.
// NodeOperands must reproduce its output bit for bit, node origins
// included.

class ReferenceMerger {
 public:
  explicit ReferenceMerger(double eps) : eps_(eps) {}

  Coord Canonical(const Coord& c, uint32_t origin) {
    for (const auto& n : nodes_) {
      if (std::fabs(n.x - c.x) <= eps_ && std::fabs(n.y - c.y) <= eps_) {
        return n;
      }
    }
    nodes_.push_back(c);
    origins_.push_back(origin);
    return c;
  }

  const std::vector<Coord>& nodes() const { return nodes_; }
  const std::vector<uint32_t>& origins() const { return origins_; }

 private:
  double eps_;
  std::vector<Coord> nodes_;
  std::vector<uint32_t> origins_;
};

double ReferenceParamOf(const Coord& p, const Coord& a, const Coord& b) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  if (std::fabs(dx) >= std::fabs(dy)) {
    return dx == 0.0 ? 0.0 : (p.x - a.x) / dx;
  }
  return dy == 0.0 ? 0.0 : (p.y - a.y) / dy;
}

NodingResult ReferenceNodeSegments(const std::vector<TaggedSegment>& segments,
                                   double eps) {
  const size_t n = segments.size();
  std::vector<std::vector<Coord>> cuts(n);
  std::vector<geom::Envelope> boxes;
  for (const auto& s : segments) {
    geom::Envelope e(s.a);
    e.ExpandToInclude(s.b);
    e.ExpandBy(eps);
    boxes.push_back(e);
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (!boxes[i].Intersects(boxes[j])) continue;
      const auto isect = geom::IntersectSegments(
          segments[i].a, segments[i].b, segments[j].a, segments[j].b, eps);
      switch (isect.kind) {
        case geom::SegSegIntersection::Kind::kNone:
          break;
        case geom::SegSegIntersection::Kind::kPoint:
          cuts[i].push_back(isect.p0);
          cuts[j].push_back(isect.p0);
          break;
        case geom::SegSegIntersection::Kind::kOverlap:
          cuts[i].push_back(isect.p0);
          cuts[i].push_back(isect.p1);
          cuts[j].push_back(isect.p0);
          cuts[j].push_back(isect.p1);
          break;
      }
    }
  }
  ReferenceMerger merger(eps);
  NodingResult out;
  for (size_t i = 0; i < n; ++i) {
    const auto origin = static_cast<uint32_t>(2 * i);
    const Coord a = merger.Canonical(segments[i].a, origin);
    const Coord b = merger.Canonical(segments[i].b, origin + 1);
    struct Cut {
      double t;
      Coord p;
    };
    std::vector<Cut> ordered;
    ordered.push_back({0.0, a});
    ordered.push_back({1.0, b});
    for (const auto& c : cuts[i]) {
      const Coord canon = merger.Canonical(c, kCutOrigin);
      ordered.push_back(
          {ReferenceParamOf(canon, segments[i].a, segments[i].b), canon});
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const Cut& x, const Cut& y) { return x.t < y.t; });
    for (size_t k = 0; k + 1 < ordered.size(); ++k) {
      const Coord& p = ordered[k].p;
      const Coord& q = ordered[k + 1].p;
      if (p == q) continue;
      out.edges.push_back(NodedEdge{p, q, i});
    }
  }
  out.nodes = merger.nodes();
  out.node_origins = merger.origins();
  return out;
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

bool SameBits(const Coord& a, const Coord& b) {
  return Bits(a.x) == Bits(b.x) && Bits(a.y) == Bits(b.y);
}

std::string Show(const Coord& c) {
  return "(" + std::to_string(c.x) + " " + std::to_string(c.y) + ")";
}

// Asserts that `got` and `want` agree element by element, coordinates
// compared by their bits.
void ExpectSameResult(const NodingResult& got, const NodingResult& want,
                      const std::string& label) {
  ASSERT_EQ(got.nodes.size(), want.nodes.size()) << label;
  for (size_t i = 0; i < want.nodes.size(); ++i) {
    ASSERT_TRUE(SameBits(got.nodes[i], want.nodes[i]))
        << label << " node " << i << ": " << Show(got.nodes[i]) << " vs "
        << Show(want.nodes[i]);
  }
  ASSERT_EQ(got.node_origins, want.node_origins) << label;
  ASSERT_EQ(got.edges.size(), want.edges.size()) << label;
  for (size_t i = 0; i < want.edges.size(); ++i) {
    const NodedEdge& g = got.edges[i];
    const NodedEdge& w = want.edges[i];
    ASSERT_TRUE(SameBits(g.a, w.a) && SameBits(g.b, w.b) &&
                g.input_index == w.input_index)
        << label << " edge " << i << ": " << Show(g.a) << "-" << Show(g.b)
        << " from " << g.input_index << " vs " << Show(w.a) << "-"
        << Show(w.b) << " from " << w.input_index;
  }
}

// Asserts that `segs` noded alone and the reference agree.
void ExpectMatchesReference(const std::vector<TaggedSegment>& segs,
                            double eps, const std::string& label) {
  ExpectSameResult(NodeAlone(segs, eps), ReferenceNodeSegments(segs, eps),
                   label);
}

// A seeded soup of `n` segments on a small grid, so vertices are shared,
// segments overlap collinearly and cross many others. Some segments are
// zero-length. Some coordinates are -0.0 or 0.0, NaN (when `with_nan`),
// half-integers, or a grid value nudged by a multiple of 0.6 eps, so
// chains of points within eps of each other form.
std::vector<TaggedSegment> RandomSoup(Rng* rng, size_t n, bool with_nan) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const auto coord = [&]() -> double {
    const int roll = rng->IntIn(0, 99);
    const double v = static_cast<double>(rng->IntIn(-4, 4));
    if (roll < 6) return -0.0;
    if (roll < 12) return 0.0;
    if (roll < 24) return v + rng->IntIn(-2, 2) * 0.6 * geom::kDerivedEps;
    if (roll < 30) return v + 0.5;
    if (with_nan && roll < 32) return kNaN;
    return v;
  };
  std::vector<TaggedSegment> segs;
  for (size_t i = 0; i < n; ++i) {
    TaggedSegment s;
    const int shape = rng->IntIn(0, 9);
    if (shape == 0 && !segs.empty()) {
      // Shares a vertex with an earlier segment.
      s.a = segs[rng->IntIn(0, static_cast<int>(segs.size()) - 1)].b;
      s.b = {coord(), coord()};
    } else if (shape == 1 && !segs.empty()) {
      // Lies on an earlier segment's line (collinear overlap or extension).
      const TaggedSegment& o =
          segs[rng->IntIn(0, static_cast<int>(segs.size()) - 1)];
      const double t0 = rng->IntIn(-2, 4) * 0.5;
      const double t1 = rng->IntIn(-2, 4) * 0.5;
      s.a = {o.a.x + (o.b.x - o.a.x) * t0, o.a.y + (o.b.y - o.a.y) * t0};
      s.b = {o.a.x + (o.b.x - o.a.x) * t1, o.a.y + (o.b.y - o.a.y) * t1};
    } else if (shape == 2) {
      // Zero-length.
      s.a = {coord(), coord()};
      s.b = s.a;
    } else {
      s.a = {coord(), coord()};
      s.b = {coord(), coord()};
    }
    segs.push_back(s);
  }
  return segs;
}

TEST(NodingReference, RandomSoupsMatchBitForBit) {
  Rng rng(20261017);
  size_t max_edges = 0;
  for (int round = 0; round < 1500; ++round) {
    const size_t n = static_cast<size_t>(rng.IntIn(2, 64));
    const auto segs = RandomSoup(&rng, n, /*with_nan=*/round % 4 == 3);
    const double eps = round % 5 == 4 ? 0.0 : geom::kDerivedEps;
    ExpectMatchesReference(segs, eps, "round " + std::to_string(round));
    if (HasFatalFailure()) return;
    max_edges = std::max(max_edges, NodeAlone(segs, eps).edges.size());
  }
  EXPECT_GT(max_edges, 200u) << "the soups should be dense enough to split";
}

TEST(NodingReference, LongSegmentCutManyTimesSortsLikeReference) {
  // One segment crossed by 40 others: its cut list is far past the
  // 16-element insertion-sort threshold of std::sort.
  std::vector<TaggedSegment> segs = {{{-1, 0}, {41, 0}}};
  for (int i = 39; i >= 0; --i) {
    segs.push_back({{i + 0.25, -1}, {i + 0.25, 1}});
  }
  ExpectMatchesReference(segs, geom::kDerivedEps, "comb");
  EXPECT_EQ(NodeAlone(segs, geom::kDerivedEps).edges.size(), 41u + 80u);
}

TEST(NodingReference, FirstRegisteredNodeWinsInsideEpsChain) {
  // Three vertices 0.6 eps apart: the outer two are more than eps apart,
  // so both register; the middle one lies within eps of both and maps to
  // the one registered first, not the one registered last.
  const double e = geom::kDerivedEps;
  const std::vector<TaggedSegment> segs = {{{0, 0}, {0, 5}},
                                           {{1.2 * e, 0}, {5, 0}},
                                           {{0.6 * e, 0}, {3, -5}}};
  ExpectMatchesReference(segs, e, "eps chain");
  const NodingResult r = NodeAlone(segs, e);
  for (const auto& edge : r.edges) {
    if (edge.input_index == 2) {
      EXPECT_TRUE(SameBits(edge.a, {0, 0}) || SameBits(edge.b, {0, 0}))
          << Show(edge.a) << "-" << Show(edge.b);
    }
  }
  size_t near_origin = 0;
  for (const auto& n : r.nodes) {
    if (std::fabs(n.x) < 1e-6 && n.y == 0.0) ++near_origin;
  }
  EXPECT_EQ(near_origin, 2u);
}

TEST(NodingReference, SignedZerosShareANode) {
  const std::vector<TaggedSegment> segs = {{{-0.0, 0}, {0, 5}},
                                           {{0.0, 0}, {5, 0}},
                                           {{0.0, -0.0}, {-5, 0}}};
  ExpectMatchesReference(segs, geom::kDerivedEps, "signed zeros");
  const NodingResult r = NodeAlone(segs, geom::kDerivedEps);
  size_t at_origin = 0;
  for (const auto& n : r.nodes) {
    if (n.x == 0.0 && n.y == 0.0) {
      ++at_origin;
      EXPECT_TRUE(std::signbit(n.x)) << "the first registered bits win";
    }
  }
  EXPECT_EQ(at_origin, 1u);
}

TEST(NodingReference, EachNanCutAddsItsOwnNode) {
  // A vertical segment at x = NaN: every orientation test against it is
  // 0, so the collinear branch cuts it and the crossing segment at a
  // point with x = NaN. NaN never matches a node, not even itself.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<TaggedSegment> segs = {{{nan, 0}, {nan, 4}},
                                           {{0, 1}, {5, 1}}};
  ExpectMatchesReference(segs, geom::kDerivedEps, "nan");
  const NodingResult r = NodeAlone(segs, geom::kDerivedEps);
  size_t nan_cuts = 0;
  for (const auto& n : r.nodes) {
    if (std::isnan(n.x) && n.y == 1.0) ++nan_cuts;
  }
  EXPECT_EQ(nan_cuts, 2u) << "one node per Canonical call on the NaN cut";
}

TEST(NodingReference, InfiniteVertexRegistersOnEveryLookup) {
  // inf - inf is NaN, so an infinite vertex matches no node, not even its
  // own: each lookup registers it again.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<TaggedSegment> segs = {{{inf, 0}, {0, 0}},
                                           {{inf, 0}, {0, 1}}};
  ExpectMatchesReference(segs, geom::kDerivedEps, "inf");
  size_t infinite = 0;
  for (const auto& n : NodeAlone(segs, geom::kDerivedEps).nodes) {
    if (std::isinf(n.x)) ++infinite;
  }
  EXPECT_GE(infinite, 2u);
}

TEST(NodingReference, ReusedResultHoldsOnlyTheLatestCall) {
  // One result written back to back by soups that alternate between large
  // and small inputs, so it both grows and shrinks.
  Rng rng(20261019);
  NodingResult reused;
  for (int round = 0; round < 400; ++round) {
    const size_t n =
        static_cast<size_t>(round % 2 == 0 ? rng.IntIn(40, 64)
                                           : rng.IntIn(1, 12));
    const auto segs = RandomSoup(&rng, n, /*with_nan=*/round % 8 == 7);
    NodeAlone(segs, geom::kDerivedEps, &reused);
    ExpectSameResult(reused, ReferenceNodeSegments(segs, geom::kDerivedEps),
                     "round " + std::to_string(round));
    if (HasFatalFailure()) return;
  }
  NodeAlone({}, geom::kDerivedEps, &reused);
  EXPECT_TRUE(reused.edges.empty());
  EXPECT_TRUE(reused.nodes.empty());
}

// --- Two operands from their self cuts --------------------------------------

// The input NodeOperands nodes: A's segments, B's segments, A's points,
// B's points.
std::vector<TaggedSegment> Concatenation(const NodingOperand& a,
                                         const NodingOperand& b) {
  std::vector<TaggedSegment> out = a.segments;
  out.insert(out.end(), b.segments.begin(), b.segments.end());
  out.insert(out.end(), a.points.begin(), a.points.end());
  out.insert(out.end(), b.points.begin(), b.points.end());
  return out;
}

// Asserts that NodeOperands on (a, b), each with its self cuts found
// apart, equals the reference noder over their concatenation, node
// origins included; and (a, a) likewise.
void ExpectOperandsMatch(NodingOperand a, NodingOperand b, double eps,
                         const std::string& label) {
  FindSelfCuts(eps, &a);
  FindSelfCuts(eps, &b);
  for (const bool same : {false, true}) {
    const NodingOperand& second = same ? a : b;
    const std::string at = label + (same ? " (a, a)" : " (a, b)");
    NodingResult got;
    NodeOperands(a, second, eps, &got);
    ExpectSameResult(got, ReferenceNodeSegments(Concatenation(a, second), eps),
                     at);
  }
}

// Deals `segs` into two operands at random: each segment to A or B, a
// zero-length one as an isolated point half the time, plus a few
// isolated points at other segments' endpoints or at fresh coordinates.
void Deal(const std::vector<TaggedSegment>& segs, Rng* rng, NodingOperand* a,
          NodingOperand* b) {
  a->segments.clear();
  a->points.clear();
  b->segments.clear();
  b->points.clear();
  for (const TaggedSegment& s : segs) {
    NodingOperand* op = rng->IntIn(0, 1) == 0 ? a : b;
    if (SameBits(s.a, s.b) && rng->IntIn(0, 1) == 0) {
      op->points.push_back({s.a, s.a});
    } else {
      op->segments.push_back(s);
    }
    if (rng->IntIn(0, 7) == 0) {
      const Coord p = rng->IntIn(0, 1) == 0
                          ? s.b
                          : Coord(rng->IntIn(-4, 4) + 0.5, rng->IntIn(-4, 4));
      (rng->IntIn(0, 1) == 0 ? a : b)->points.push_back({p, p});
    }
  }
}

TEST(NodeOperands, DealtSoupsMatchTheConcatenation) {
  Rng rng(20261020);
  NodingOperand a;
  NodingOperand b;
  size_t with_points = 0;
  for (int round = 0; round < 1500; ++round) {
    const size_t n = static_cast<size_t>(rng.IntIn(1, 48));
    const auto segs = RandomSoup(&rng, n, /*with_nan=*/round % 4 == 3);
    const double eps = round % 5 == 4 ? 0.0 : geom::kDerivedEps;
    Deal(segs, &rng, &a, &b);
    with_points += !a.points.empty() && !b.points.empty();
    ExpectOperandsMatch(a, b, eps, "round " + std::to_string(round));
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(with_points, 300u) << "both operands should often hold points";
}

// An operand of the given segments and points.
NodingOperand Operand(std::vector<std::pair<Coord, Coord>> segments,
                      std::vector<Coord> points = {}) {
  NodingOperand op;
  for (const auto& [p, q] : segments) op.segments.push_back({p, q});
  for (const Coord& p : points) op.points.push_back({p, p});
  return op;
}

TEST(NodeOperands, EdgeCasesMatchTheConcatenation) {
  const double e = geom::kDerivedEps;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Collinear overlaps, within each operand and across them.
  ExpectOperandsMatch(Operand({{{0, 0}, {4, 0}}, {{2, 0}, {6, 0}}}),
                      Operand({{{1, 0}, {5, 0}}, {{3, 0}, {3, 0}}}, {{4, 0}}),
                      e, "collinear overlaps");
  // Shared endpoints: a ring in A, a line through its vertices in B.
  ExpectOperandsMatch(
      Operand({{{0, 0}, {4, 0}}, {{4, 0}, {4, 4}}, {{4, 4}, {0, 0}}}, {{0, 0}}),
      Operand({{{4, 0}, {8, 0}}, {{8, 0}, {4, 4}}}, {{4, 4}, {2, 2}}), e,
      "shared endpoints");
  // An eps chain: the outer points are more than eps apart, the middle
  // one within eps of both, split between the operands.
  ExpectOperandsMatch(Operand({{{0, 0}, {0, 5}}, {{0.6 * e, 0}, {3, -5}}}),
                      Operand({{{1.2 * e, 0}, {5, 0}}}, {{0.6 * e, 0}}), e,
                      "eps chain");
  // Signed zeros.
  ExpectOperandsMatch(Operand({{{-0.0, 0}, {0, 5}}}, {{0.0, -0.0}}),
                      Operand({{{0.0, 0}, {5, 0}}, {{0.0, -0.0}, {-5, 0}}},
                              {{-0.0, 0.0}}),
                      e, "signed zeros");
  // NaN and infinite coordinates, as segment ends and as points.
  ExpectOperandsMatch(Operand({{{nan, 0}, {nan, 4}}, {{inf, 0}, {0, 0}}},
                              {{nan, 1}, {inf, 0}}),
                      Operand({{{0, 1}, {5, 1}}, {{inf, 0}, {0, 1}}},
                              {{inf, 0}, {0, 0}}),
                      e, "nan and inf");
  // Operands without segments, or without anything.
  ExpectOperandsMatch(Operand({}, {{1, 1}, {1, 1}}), Operand({}), e,
                      "points only");
  ExpectOperandsMatch(Operand({}), Operand({{{0, 0}, {1, 1}}}), e,
                      "empty operand");
}

TEST(NodeOperands, MergeShortcutsMatchTheReference) {
  // A cut equal to its segment's raw endpoint returns the endpoint's node
  // without a scan, and so does a segment start equal to the previous
  // segment's end. Here the shared endpoint (0.6 eps, 0) of two
  // consecutive segments merges into the earlier node (0, 0), and each of
  // the two cuts the other at exactly that raw endpoint.
  const double e = geom::kDerivedEps;
  const std::vector<TaggedSegment> chain = {{{0, 0}, {0, 5}},
                                            {{3, -5}, {0.6 * e, 0}},
                                            {{0.6 * e, 0}, {5, 0}}};
  ExpectMatchesReference(chain, e, "merged shared endpoint");
  const NodingResult r = NodeAlone(chain, e);
  for (const auto& edge : r.edges) {
    if (edge.input_index > 0) {
      EXPECT_TRUE(SameBits(edge.a, {0, 0}) || SameBits(edge.b, {0, 0}))
          << Show(edge.a) << "-" << Show(edge.b);
    }
  }
  EXPECT_EQ(r.nodes.size(), 4u);
  const NodingOperand chain_op =
      Operand({{{3, -5}, {0.6 * e, 0}}, {{0.6 * e, 0}, {5, 0}}});
  ExpectOperandsMatch(Operand({{{0, 0}, {0, 5}}}), chain_op, e,
                      "merged shared endpoint");
  ExpectOperandsMatch(chain_op, Operand({{{0, 0}, {0, 5}}}), e,
                      "merged shared endpoint, chain first");
  // An infinite vertex matches no node, so a cut at a segment's infinite
  // raw endpoint must scan and register a node of its own: a zero-length
  // line at (inf, 5) lies on the segment that starts there, which cuts
  // both at exactly that point.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<TaggedSegment> at_inf = {{{inf, 5}, {inf, 5}},
                                             {{inf, 5}, {0, 0}}};
  ExpectMatchesReference(at_inf, e, "cut at an infinite endpoint");
  size_t infinite = 0;
  for (const auto& n : NodeAlone(at_inf, e).nodes) {
    if (std::isinf(n.x)) ++infinite;
  }
  // Each lookup of (inf, 5): both ends and the cut of the zero-length
  // line, the start and the cut of the other segment.
  EXPECT_EQ(infinite, 5u);
  ExpectOperandsMatch(Operand({{{inf, 5}, {inf, 5}}}),
                      Operand({{{inf, 5}, {0, 0}}}, {{inf, 5}}), e,
                      "cut at an infinite endpoint");
  // A closed ring whose every vertex is shared by consecutive segments,
  // its start cut by the last segment and by a point of the other operand.
  ExpectOperandsMatch(
      Operand({{{0, 0}, {2, 0}}, {{2, 0}, {2, 2}}, {{2, 2}, {0, 0}}}),
      Operand({{{1, -1}, {1, 3}}}, {{0, 0}, {2, 2}}), e, "ring");
}

}  // namespace
}  // namespace spatter::algo
