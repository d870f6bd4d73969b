#include "algo/polygonize.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "algo/noding.h"
#include "algo/ring_ops.h"
#include "geom/predicates.h"

namespace spatter::algo {

using geom::Coord;
using geom::Geometry;
using geom::GeomPtr;
using geom::GeomType;

namespace {

struct HalfEdge {
  size_t from;       // node index
  size_t to;         // node index
  double angle;      // direction angle at `from`
  bool used = false;
  size_t twin = 0;   // index of the reversed half-edge
};

}  // namespace

GeomPtr Polygonize(const Geometry& g) {
  // 1. Collect linework segments.
  NodingOperand linework;
  std::vector<TaggedSegment>& segs = linework.segments;
  geom::ForEachBasic(g, [&segs](const Geometry& basic) {
    if (basic.type() == GeomType::kLineString) {
      const auto& pts = geom::AsLineString(basic).points();
      for (size_t i = 0; i + 1 < pts.size(); ++i) {
        if (pts[i] != pts[i + 1]) segs.push_back({pts[i], pts[i + 1]});
      }
    } else if (basic.type() == GeomType::kPolygon) {
      for (const auto& ring : geom::AsPolygon(basic).rings()) {
        for (size_t i = 0; i + 1 < ring.size(); ++i) {
          if (ring[i] != ring[i + 1]) segs.push_back({ring[i], ring[i + 1]});
        }
      }
    }
  });
  if (segs.empty()) return geom::MakeEmpty(GeomType::kGeometryCollection);

  // 2. Node the arrangement: the linework as one operand, against nothing.
  FindSelfCuts(geom::kDerivedEps, &linework);
  NodingResult noded;
  NodeOperands(linework, NodingOperand(), geom::kDerivedEps, &noded);

  // 3. Build the half-edge structure. Deduplicate undirected edges first
  //    (overlapping input lines produce repeated noded edges).
  std::map<Coord, size_t> node_index;
  for (size_t i = 0; i < noded.nodes.size(); ++i) {
    node_index[noded.nodes[i]] = i;
  }
  std::vector<std::pair<size_t, size_t>> undirected;
  for (const auto& e : noded.edges) {
    const size_t u = node_index.at(e.a);
    const size_t v = node_index.at(e.b);
    if (u == v) continue;
    const auto key = std::minmax(u, v);
    const std::pair<size_t, size_t> item{key.first, key.second};
    if (std::find(undirected.begin(), undirected.end(), item) ==
        undirected.end()) {
      undirected.push_back(item);
    }
  }

  std::vector<HalfEdge> hedges;
  hedges.reserve(undirected.size() * 2);
  for (const auto& [u, v] : undirected) {
    const Coord& pu = noded.nodes[u];
    const Coord& pv = noded.nodes[v];
    HalfEdge fwd{u, v, std::atan2(pv.y - pu.y, pv.x - pu.x), false, 0};
    HalfEdge rev{v, u, std::atan2(pu.y - pv.y, pu.x - pv.x), false, 0};
    fwd.twin = hedges.size() + 1;
    rev.twin = hedges.size();
    hedges.push_back(fwd);
    hedges.push_back(rev);
  }

  // Outgoing half-edges per node, sorted by angle.
  std::vector<std::vector<size_t>> outgoing(noded.nodes.size());
  for (size_t i = 0; i < hedges.size(); ++i) {
    outgoing[hedges[i].from].push_back(i);
  }
  for (auto& out : outgoing) {
    std::sort(out.begin(), out.end(), [&hedges](size_t a, size_t b) {
      return hedges[a].angle < hedges[b].angle;
    });
  }

  // 4. Trace faces: from each unused half-edge, repeatedly take the
  //    next-clockwise outgoing edge after the reversed incoming edge.
  std::vector<GeomPtr> polys;
  for (size_t start = 0; start < hedges.size(); ++start) {
    if (hedges[start].used) continue;
    std::vector<size_t> face;
    size_t cur = start;
    while (!hedges[cur].used) {
      hedges[cur].used = true;
      face.push_back(cur);
      const size_t twin = hedges[cur].twin;
      const auto& candidates = outgoing[hedges[cur].to];
      // Find the twin among outgoing edges of `to`, then step to the next
      // edge clockwise (previous in CCW-sorted order).
      size_t pos = 0;
      for (size_t k = 0; k < candidates.size(); ++k) {
        if (candidates[k] == twin) {
          pos = k;
          break;
        }
      }
      const size_t next =
          candidates[(pos + candidates.size() - 1) % candidates.size()];
      cur = next;
    }
    if (face.size() < 3) continue;
    std::vector<Coord> ring;
    ring.reserve(face.size() + 1);
    for (size_t he : face) ring.push_back(noded.nodes[hedges[he].from]);
    ring.push_back(ring.front());
    // Counter-clockwise traces are bounded faces under this turn rule.
    if (SignedRingArea(ring) > 0.0) {
      polys.push_back(geom::MakePolygon({std::move(ring)}));
    }
  }

  return geom::MakeCollection(GeomType::kGeometryCollection,
                              std::move(polys));
}

}  // namespace spatter::algo
