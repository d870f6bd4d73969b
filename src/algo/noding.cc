#include "algo/noding.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "geom/envelope.h"
#include "geom/predicates.h"

namespace spatter::algo {

using geom::Coord;

namespace {

// One memo entry of NodeMerger: a looked-up coordinate (with -0.0 stored
// as 0.0) and the node it resolved to. A slot is live only when its stamp
// equals the merger's, so a new merger starts empty without a clear.
struct MemoSlot {
  double x = 0.0;
  double y = 0.0;
  uint32_t node = 0;
  uint32_t stamp = 0;
};

// Merges nearby coordinates onto canonical node positions: a coordinate
// maps to the first registered node within eps on both axes, or becomes a
// new node. Nodes are only appended, so the first match for a given
// coordinate never changes once it exists; the memo returns it without
// rescanning the nodes.
class NodeMerger {
 public:
  NodeMerger(double eps, size_t max_lookups, std::vector<Coord>* nodes,
             std::vector<MemoSlot>* memo, uint32_t* stamp)
      : eps_(eps), nodes_(nodes), memo_(memo) {
    size_t capacity = 16;
    while (capacity < 2 * max_lookups) capacity *= 2;
    if (memo_->size() < capacity) {
      memo_->assign(capacity, MemoSlot{});
      *stamp = 0;
    }
    if (++*stamp == 0) {  // wrapped: stale stamps could look live again.
      std::fill(memo_->begin(), memo_->end(), MemoSlot{});
      *stamp = 1;
    }
    stamp_ = *stamp;
    mask_ = memo_->size() - 1;
  }

  /// Returns the canonical coordinate for `c`, registering it if new.
  Coord Canonical(const Coord& c) {
    // NaN never equals itself, so it skips the memo and, as in the scan,
    // registers a fresh node on every call.
    MemoSlot* slot = nullptr;
    if (c.x == c.x && c.y == c.y) {
      const double kx = c.x + 0.0;  // -0.0 and 0.0 match the same nodes.
      const double ky = c.y + 0.0;
      for (size_t i = Hash(kx, ky) & mask_;; i = (i + 1) & mask_) {
        MemoSlot& s = (*memo_)[i];
        if (s.stamp != stamp_) {
          slot = &s;
          slot->x = kx;
          slot->y = ky;
          break;
        }
        if (s.x == kx && s.y == ky) return (*nodes_)[s.node];
      }
    }
    const size_t count = nodes_->size();
    size_t hit = 0;
    while (hit < count && !Near((*nodes_)[hit], c)) ++hit;
    if (hit == count) {
      nodes_->push_back(c);
      // An infinite coordinate does not match itself (inf - inf is NaN):
      // like NaN, it must register again next time.
      if (!Near(c, c)) return c;
    }
    if (slot != nullptr) {
      slot->node = static_cast<uint32_t>(hit);
      slot->stamp = stamp_;
    }
    return (*nodes_)[hit];
  }

 private:
  bool Near(const Coord& n, const Coord& c) const {
    return std::fabs(n.x - c.x) <= eps_ && std::fabs(n.y - c.y) <= eps_;
  }

  static size_t Hash(double x, double y) {
    uint64_t bx;
    uint64_t by;
    std::memcpy(&bx, &x, sizeof bx);
    std::memcpy(&by, &y, sizeof by);
    uint64_t h = (bx ^ (by * 0x9e3779b97f4a7c15ULL)) * 0xbf58476d1ce4e5b9ULL;
    return static_cast<size_t>(h ^ (h >> 31));
  }

  double eps_;
  std::vector<Coord>* nodes_;
  std::vector<MemoSlot>* memo_;
  uint32_t stamp_ = 0;
  size_t mask_ = 0;
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
// itself), so a call allocates only its result.
struct Scratch {
  std::vector<geom::Envelope> boxes;
  std::vector<FoundCut> found;
  std::vector<uint32_t> start;
  std::vector<Coord> by_segment;
  std::vector<Cut> ordered;
  std::vector<MemoSlot> memo;
  uint32_t memo_stamp = 0;
};

}  // namespace

NodingResult NodeSegments(const std::vector<TaggedSegment>& segments,
                          double eps) {
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

  NodingResult out;
  out.edges.reserve(n + found.size());
  NodeMerger merger(eps, 2 * n + found.size(), &out.nodes, &scratch.memo,
                    &scratch.memo_stamp);
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
  return out;
}

}  // namespace spatter::algo
