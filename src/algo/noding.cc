#include "algo/noding.h"

#include <algorithm>
#include <cmath>

#include "geom/envelope.h"
#include "geom/predicates.h"

namespace spatter::algo {

using geom::Coord;

namespace {

// Merges nearby coordinates onto canonical node positions: a coordinate
// maps to the first registered node within eps on both axes, or becomes a
// new node. NaN and infinite coordinates match nothing, themselves
// included, so each lookup of one registers a fresh node.
class NodeMerger {
 public:
  NodeMerger(double eps, std::vector<Coord>* nodes)
      : eps_(eps), nodes_(nodes) {}

  /// Returns the canonical coordinate for `c`, registering it if new.
  Coord Canonical(const Coord& c) {
    for (const Coord& n : *nodes_) {
      if (std::fabs(n.x - c.x) <= eps_ && std::fabs(n.y - c.y) <= eps_) {
        return n;
      }
    }
    nodes_->push_back(c);
    return c;
  }

 private:
  double eps_;
  std::vector<Coord>* nodes_;
};

// Scalar position of collinear point p along segment [a, b].
double ParamOf(const Coord& p, const Coord& a, const Coord& b) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  if (std::fabs(dx) >= std::fabs(dy)) {
    return dx == 0.0 ? 0.0 : (p.x - a.x) / dx;
  }
  return dy == 0.0 ? 0.0 : (p.y - a.y) / dy;
}

// A cut point of one input segment, recorded in discovery order.
struct FoundCut {
  uint32_t seg;
  Coord p;
};

// A split position along one segment.
struct Cut {
  double t;
  Coord p;
};

// Per-thread buffers reused across calls (NodeSegments never re-enters
// itself), so a call allocates at most its result.
struct Scratch {
  std::vector<geom::Envelope> boxes;
  std::vector<FoundCut> found;
  std::vector<uint32_t> start;
  std::vector<Coord> by_segment;
  std::vector<Cut> ordered;
};

}  // namespace

NodingResult NodeSegments(const std::vector<TaggedSegment>& segments,
                          double eps) {
  NodingResult out;
  NodeSegments(segments, eps, &out);
  return out;
}

void NodeSegments(const std::vector<TaggedSegment>& segments, double eps,
                  NodingResult* result) {
  thread_local Scratch scratch;
  const size_t n = segments.size();

  auto& boxes = scratch.boxes;
  boxes.clear();
  for (const auto& s : segments) {
    geom::Envelope e(s.a);
    e.ExpandToInclude(s.b);
    e.ExpandBy(eps);
    boxes.push_back(e);
  }

  auto& found = scratch.found;
  found.clear();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (!boxes[i].Intersects(boxes[j])) continue;
      const auto isect = geom::IntersectSegments(
          segments[i].a, segments[i].b, segments[j].a, segments[j].b, eps);
      const auto si = static_cast<uint32_t>(i);
      const auto sj = static_cast<uint32_t>(j);
      switch (isect.kind) {
        case geom::SegSegIntersection::Kind::kNone:
          break;
        case geom::SegSegIntersection::Kind::kPoint:
          found.push_back({si, isect.p0});
          found.push_back({sj, isect.p0});
          break;
        case geom::SegSegIntersection::Kind::kOverlap:
          found.push_back({si, isect.p0});
          found.push_back({si, isect.p1});
          found.push_back({sj, isect.p0});
          found.push_back({sj, isect.p1});
          break;
      }
    }
  }

  // Stable counting sort by segment: segment i's cuts land in
  // by_segment[start[i], start[i + 1]) in the order they were found, the
  // order a per-segment list would have.
  auto& start = scratch.start;
  start.assign(n + 2, 0);
  for (const auto& c : found) ++start[c.seg + 2];
  for (size_t i = 2; i < n + 2; ++i) start[i] += start[i - 1];
  auto& by_segment = scratch.by_segment;
  by_segment.resize(found.size());
  for (const auto& c : found) by_segment[start[c.seg + 1]++] = c.p;

  NodingResult& out = *result;
  out.edges.clear();
  out.nodes.clear();
  out.edges.reserve(n + found.size());
  NodeMerger merger(eps, &out.nodes);
  auto& ordered = scratch.ordered;
  for (size_t i = 0; i < n; ++i) {
    const Coord a = merger.Canonical(segments[i].a);
    const Coord b = merger.Canonical(segments[i].b);
    // Sort cut points along the segment and split.
    ordered.clear();
    ordered.push_back({0.0, a});
    ordered.push_back({1.0, b});
    for (uint32_t k = start[i]; k < start[i + 1]; ++k) {
      const Coord canon = merger.Canonical(by_segment[k]);
      ordered.push_back({ParamOf(canon, segments[i].a, segments[i].b), canon});
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const Cut& x, const Cut& y) { return x.t < y.t; });
    for (size_t k = 0; k + 1 < ordered.size(); ++k) {
      const Coord& p = ordered[k].p;
      const Coord& q = ordered[k + 1].p;
      if (p == q) continue;  // degenerate split.
      out.edges.push_back(NodedEdge{p, q, segments[i].src, i});
    }
  }
}

}  // namespace spatter::algo
