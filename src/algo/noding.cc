#include "algo/noding.h"

#include <algorithm>
#include <cmath>

#include "geom/predicates.h"

namespace spatter::algo {

using geom::Coord;

namespace {

bool Finite(const Coord& c) { return std::isfinite(c.x) && std::isfinite(c.y); }

// Scalar position of collinear point p along segment [a, b].
double ParamOf(const Coord& p, const Coord& a, const Coord& b) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  if (std::fabs(dx) >= std::fabs(dy)) {
    return dx == 0.0 ? 0.0 : (p.x - a.x) / dx;
  }
  return dy == 0.0 ? 0.0 : (p.y - a.y) / dy;
}

// A cut point bound for cut list `list`, recorded in discovery order.
struct FoundCut {
  uint32_t list;
  Coord p;
};

// A split position along one segment.
struct Cut {
  double t;
  Coord p;
};

// A run of cut points.
struct CutRange {
  const Coord* begin;
  const Coord* end;
};

// List k of `cuts`.
CutRange ListOf(const SegmentCuts& cuts, size_t k) {
  return {cuts.cuts.data() + cuts.start[k],
          cuts.cuts.data() + cuts.start[k + 1]};
}

// Per-thread buffers reused across calls (no function here re-enters
// another), so a call allocates at most its result.
struct Scratch {
  std::vector<geom::Envelope> boxes;
  std::vector<FoundCut> found;
  SegmentCuts cuts;  // NodeOperands' cross cuts
  std::vector<Cut> ordered;
};

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

// Merges endpoints and cuts onto nodes and splits segments at their cuts,
// one segment at a time in input order. A coordinate maps to
// the first registered node within eps on both axes, or becomes a new
// node. NaN and infinite coordinates match nothing, themselves included,
// so each lookup of one registers a fresh node.
class Splitter {
 public:
  Splitter(double eps, size_t edges, NodingResult* out)
      : eps_(eps), out_(out), ordered_(ThreadScratch().ordered) {
    out_->edges.clear();
    out_->nodes.clear();
    out_->node_origins.clear();
    out_->edges.reserve(edges);
  }

  // Splits input segment i, `s`, at the cuts of `lists` in turn.
  void Split(size_t i, const TaggedSegment& s, const CutRange (&lists)[4]) {
    const auto origin = static_cast<uint32_t>(2 * i);
    const bool a_finite = Finite(s.a);
    const bool b_finite = Finite(s.b);
    // Each shortcut below returns what the lookup it skips would return
    // (noding.h).
    const Coord a = prev_finite_ && s.a == prev_raw_ ? prev_node_
                                                      : Canonical(s.a, origin);
    const Coord b = a_finite && s.b == s.a ? a : Canonical(s.b, origin + 1);
    // Sort cut points along the segment and split.
    ordered_.clear();
    ordered_.push_back({0.0, a});
    ordered_.push_back({1.0, b});
    for (const CutRange& list : lists) {
      for (const Coord* c = list.begin; c != list.end; ++c) {
        Coord canon;
        if (a_finite && *c == s.a) {
          canon = a;
        } else if (b_finite && *c == s.b) {
          canon = b;
        } else {
          canon = Canonical(*c, kCutOrigin);
        }
        ordered_.push_back({ParamOf(canon, s.a, s.b), canon});
      }
    }
    std::sort(ordered_.begin(), ordered_.end(),
              [](const Cut& x, const Cut& y) { return x.t < y.t; });
    for (size_t k = 0; k + 1 < ordered_.size(); ++k) {
      const Coord& p = ordered_[k].p;
      const Coord& q = ordered_[k + 1].p;
      if (p == q) continue;  // degenerate split.
      out_->edges.push_back(NodedEdge{p, q, i});
    }
    prev_finite_ = b_finite;
    prev_raw_ = s.b;
    prev_node_ = b;
  }

 private:
  // The canonical coordinate for `c`, registering it with `origin` if new.
  Coord Canonical(const Coord& c, uint32_t origin) {
    for (const Coord& n : out_->nodes) {
      if (std::fabs(n.x - c.x) <= eps_ && std::fabs(n.y - c.y) <= eps_) {
        return n;
      }
    }
    out_->nodes.push_back(c);
    out_->node_origins.push_back(origin);
    return c;
  }

  double eps_;
  NodingResult* out_;
  std::vector<Cut>& ordered_;
  // The previous segment's raw end and its node, while that end is finite.
  bool prev_finite_ = false;
  Coord prev_raw_;
  Coord prev_node_;
};

geom::Envelope Box(const TaggedSegment& s, double eps) {
  geom::Envelope e(s.a);
  e.ExpandToInclude(s.b);
  e.ExpandBy(eps);
  return e;
}

// Intersects s with t, in that argument order (the lower index first, as
// the all-pairs loop meets them), and records each cut on s in list `ls`
// and each cut on t in list `lt`.
void AddPairCuts(const TaggedSegment& s, const TaggedSegment& t, uint32_t ls,
                 uint32_t lt, double eps, std::vector<FoundCut>* found) {
  const auto isect = geom::IntersectSegments(s.a, s.b, t.a, t.b, eps);
  switch (isect.kind) {
    case geom::SegSegIntersection::Kind::kNone:
      break;
    case geom::SegSegIntersection::Kind::kPoint:
      found->push_back({ls, isect.p0});
      found->push_back({lt, isect.p0});
      break;
    case geom::SegSegIntersection::Kind::kOverlap:
      found->push_back({ls, isect.p0});
      found->push_back({ls, isect.p1});
      found->push_back({lt, isect.p0});
      found->push_back({lt, isect.p1});
      break;
  }
}

// Stable counting sort by list: list k's cuts land in
// out->cuts[start[k], start[k + 1]) in the order they were found.
void SortByList(const std::vector<FoundCut>& found, size_t lists,
                SegmentCuts* out) {
  auto& start = out->start;
  start.assign(lists + 2, 0);
  for (const auto& c : found) ++start[c.list + 2];
  for (size_t k = 2; k < lists + 2; ++k) start[k] += start[k - 1];
  out->cuts.resize(found.size());
  for (const auto& c : found) out->cuts[start[c.list + 1]++] = c.p;
  start.pop_back();
}

}  // namespace

void FindSelfCuts(double eps, NodingOperand* op) {
  const size_t ns = op->segments.size();
  const size_t n = ns + op->points.size();
  op->boxes.clear();
  for (size_t i = 0; i < n; ++i) op->boxes.push_back(Box(op->element(i), eps));
  auto& found = ThreadScratch().found;
  found.clear();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (!op->boxes[i].Intersects(op->boxes[j])) continue;
      AddPairCuts(op->element(i), op->element(j),
                  static_cast<uint32_t>(2 * i + (j >= ns ? 1 : 0)),
                  static_cast<uint32_t>(2 * j + (i >= ns ? 1 : 0)), eps,
                  &found);
    }
  }
  SortByList(found, 2 * n, &op->self);
}

void NodeOperands(const NodingOperand& a, const NodingOperand& b, double eps,
                  NodingResult* result) {
  Scratch& scratch = ThreadScratch();
  const size_t na = a.segments.size();
  const size_t nb = b.segments.size();
  const size_t ma = a.points.size();
  const size_t mb = b.points.size();
  const size_t n = na + nb + ma + mb;
  // Element e of an operand (its segments, then its points) as an index
  // into the concatenation.
  const auto index_a = [&](size_t e) { return e < na ? e : nb + e; };
  const auto index_b = [&](size_t e) { return e < nb ? na + e : na + ma + e; };

  // Cross cuts, two lists per concatenated element i: at 2i its cuts from
  // the other operand's segments, at 2i + 1 from its points. Found with A
  // outer and B inner, each list is in partner order.
  auto& found = scratch.found;
  found.clear();
  for (size_t e = 0; e < na + ma; ++e) {
    for (size_t f = 0; f < nb + mb; ++f) {
      if (!a.boxes[e].Intersects(b.boxes[f])) continue;
      const auto la = static_cast<uint32_t>(2 * index_a(e) + (f >= nb));
      const auto lb = static_cast<uint32_t>(2 * index_b(f) + (e >= na));
      // The concatenation lists every segment before every point, and A
      // before B within each.
      if (e >= na && f < nb) {
        AddPairCuts(b.element(f), a.element(e), lb, la, eps, &found);
      } else {
        AddPairCuts(a.element(e), b.element(f), la, lb, eps, &found);
      }
    }
  }
  const SegmentCuts& cross = scratch.cuts;
  SortByList(found, 2 * n, &scratch.cuts);

  // Each element's cuts are its self and cross lists in partner order:
  // A's segments, B's segments, A's points, B's points.
  Splitter splitter(eps,
                    n + cross.cuts.size() + a.self.cuts.size() +
                        b.self.cuts.size(),
                    result);
  const auto split_a = [&](size_t e) {
    const size_t i = index_a(e);
    const CutRange lists[] = {ListOf(a.self, 2 * e), ListOf(cross, 2 * i),
                              ListOf(a.self, 2 * e + 1),
                              ListOf(cross, 2 * i + 1)};
    splitter.Split(i, a.element(e), lists);
  };
  const auto split_b = [&](size_t e) {
    const size_t i = index_b(e);
    const CutRange lists[] = {ListOf(cross, 2 * i), ListOf(b.self, 2 * e),
                              ListOf(cross, 2 * i + 1),
                              ListOf(b.self, 2 * e + 1)};
    splitter.Split(i, b.element(e), lists);
  };
  for (size_t e = 0; e < na; ++e) split_a(e);
  for (size_t e = 0; e < nb; ++e) split_b(e);
  for (size_t e = na; e < na + ma; ++e) split_a(e);
  for (size_t e = nb; e < nb + mb; ++e) split_b(e);
}

}  // namespace spatter::algo
