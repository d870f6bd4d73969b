#include "relate/point_locator.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>

#include "common/coverage.h"
#include "geom/predicates.h"

namespace spatter::relate {

using geom::Coord;
using geom::Geometry;
using geom::GeomType;

namespace {

bool CoordsEqual(const Coord& a, const Coord& b, double eps) {
  return std::fabs(a.x - b.x) <= eps && std::fabs(a.y - b.y) <= eps;
}

// LocateAreal's answer from a scan's polygon flags.
Location ArealLocation(bool interior, bool boundary) {
  if (interior) return Location::kInterior;
  if (boundary) return Location::kBoundary;
  return Location::kExterior;
}

}  // namespace

struct PreparedOperand::Scan {
  bool areal_interior = false;
  bool areal_boundary = false;
  bool point_interior = false;
  int endpoint_count = 0;
  bool on_line = false;
  bool has_empty_line_element = false;
};

void Tally::Apply(const faults::FaultState* faults) const {
  if (fired != 0) faults->FireBits(fired);
  // One statement per site, so each registers at its first hit, as the
  // SPATTER_COV each count stands for would.
  if (const uint32_t n = hits[kLocateArealInterior]) {
    SPATTER_COV_N("locate", "areal_interior", n);
  }
  if (const uint32_t n = hits[kLocateArealBoundary]) {
    SPATTER_COV_N("locate", "areal_boundary", n);
  }
  if (const uint32_t n = hits[kLocatePointElementInterior]) {
    SPATTER_COV_N("locate", "point_element_interior", n);
  }
  if (const uint32_t n = hits[kLocateMod2Boundary]) {
    SPATTER_COV_N("locate", "mod2_boundary", n);
  }
  if (const uint32_t n = hits[kLocateLineInterior]) {
    SPATTER_COV_N("locate", "line_interior", n);
  }
  if (const uint32_t n = hits[kLocateExterior]) {
    SPATTER_COV_N("locate", "exterior", n);
  }
  if (const uint32_t n = hits[kRelateArealVsNonareal]) {
    SPATTER_COV_N("relate", "areal_vs_nonareal", n);
  }
  if (const uint32_t n = hits[kRelateArealVsAreal]) {
    SPATTER_COV_N("relate", "areal_vs_areal", n);
  }
}

Location PreparedOperand::Resolve(const Scan& scan,
                                  const faults::FaultState* faults,
                                  Tally* tally) {
  if (scan.areal_interior) {
    tally->Hit(Tally::kLocateArealInterior);
    return Location::kInterior;
  }
  if (scan.areal_boundary) {
    tally->Hit(Tally::kLocateArealBoundary);
    return Location::kBoundary;
  }
  if (scan.point_interior) {
    tally->Hit(Tally::kLocatePointElementInterior);
    return Location::kInterior;
  }
  bool parity_applies = true;
  if (scan.has_empty_line_element && faults &&
      faults->IsEnabled(faults::FaultId::kGeosBoundaryEmptyElementDrop)) {
    // Injected bug: an EMPTY line element resets the mod-2 accumulator, so
    // every endpoint is treated as interior.
    tally->Fire(faults::FaultId::kGeosBoundaryEmptyElementDrop);
    parity_applies = false;
  }
  if (parity_applies && scan.endpoint_count % 2 == 1) {
    tally->Hit(Tally::kLocateMod2Boundary);
    return Location::kBoundary;
  }
  if (scan.on_line || scan.endpoint_count > 0) {
    tally->Hit(Tally::kLocateLineInterior);
    return Location::kInterior;
  }
  tally->Hit(Tally::kLocateExterior);
  return Location::kExterior;
}

void PreparedOperand::Prepare(const Geometry& g, double eps,
                              algo::NodingOperand* noding) {
  eps_ = eps;
  elements_.clear();
  segments_.clear();
  rings_.clear();
  element_ends_.clear();
  areal_ = false;
  witnesses_.clear();
  noding_ = noding;
  if (noding_) {
    noding_->segments.clear();
    noding_->points.clear();
  }
  collection_ = g.type() == GeomType::kGeometryCollection;
  if (collection_) {
    const auto& coll = geom::AsCollection(g);
    for (size_t i = 0; i < coll.NumElements(); ++i) {
      Add(coll.ElementAt(i));
      element_ends_.push_back(static_cast<uint32_t>(elements_.size()));
    }
  } else {
    Add(g);
  }
  noding_ = nullptr;
}

// Visits the basic elements in ForEachBasic order.
void PreparedOperand::Add(const Geometry& g) {
  if (g.IsCollection()) {
    const auto& coll = geom::AsCollection(g);
    for (size_t i = 0; i < coll.NumElements(); ++i) Add(coll.ElementAt(i));
    return;
  }
  switch (g.type()) {
    case GeomType::kPoint:
      if (!g.IsEmpty()) {
        const Coord& c = *geom::AsPoint(g).coord();
        Element e(Element::Kind::kPoint);
        e.p = c;
        elements_.push_back(e);
        if (noding_) noding_->points.push_back({c, c});
      }
      break;
    case GeomType::kLineString:
      AddLine(geom::AsLineString(g));
      break;
    case GeomType::kPolygon:
      AddPolygon(geom::AsPolygon(g));
      break;
    default:
      break;
  }
}

void PreparedOperand::AddLine(const geom::LineString& line) {
  const auto& pts = line.points();
  if (pts.empty()) {
    elements_.push_back(Element(Element::Kind::kEmptyLine));
    return;
  }
  Element e(Element::Kind::kLine);
  e.open = !line.IsClosed() && pts.size() >= 2;
  e.p = pts.front();
  e.q = pts.back();
  e.begin = static_cast<uint32_t>(segments_.size());
  bool emitted = false;
  for (size_t i = 0; i + 1 < pts.size(); ++i) {
    AddSegment(pts[i], pts[i + 1]);
    if (pts[i] != pts[i + 1]) {
      AddNoderSegment(pts[i], pts[i + 1]);
      emitted = true;
    }
  }
  e.end = static_cast<uint32_t>(segments_.size());
  if (!emitted) {
    // Fully degenerate line: its point set is a single point, which must
    // still produce a classification node.
    AddNoderSegment(pts[0], pts[0]);
  }
  if (e.open || e.begin != e.end) elements_.push_back(e);
}

void PreparedOperand::AddPolygon(const geom::Polygon& poly) {
  // The noder takes every ring; location ignores an empty polygon.
  const bool located = !poly.IsEmpty();
  Element e(Element::Kind::kPolygon);
  e.begin = static_cast<uint32_t>(rings_.size());
  for (const auto& ring : poly.rings()) {
    const auto first = static_cast<uint32_t>(segments_.size());
    bool emitted = false;
    for (size_t i = 0; i + 1 < ring.size(); ++i) {
      if (located) AddSegment(ring[i], ring[i + 1]);
      if (ring[i] != ring[i + 1]) {
        AddNoderSegment(ring[i], ring[i + 1]);
        emitted = true;
      }
    }
    if (ring.size() >= 2 && ring.front() != ring.back()) {
      if (located) AddSegment(ring.back(), ring.front());
      AddNoderSegment(ring.back(), ring.front());
      emitted = true;
    }
    if (!emitted && !ring.empty()) AddNoderSegment(ring[0], ring[0]);
    if (located) AddRing(first);
  }
  if (located) {
    e.end = static_cast<uint32_t>(rings_.size());
    elements_.push_back(e);
    areal_ = true;
    if (noding_) {
      if (auto ip = algo::InteriorPointOfPolygon(poly)) {
        witnesses_.push_back(*ip);
      }
    }
  }
}

void PreparedOperand::AddNoderSegment(const Coord& a, const Coord& b) {
  if (noding_) noding_->segments.push_back({a, b});
}

void PreparedOperand::AddSegment(const Coord& a, const Coord& b) {
  const double tol = geom::OnSegmentTolerance(a, b, eps_);
  segments_.push_back({a, b, std::min(a.y, b.y) - tol,
                       std::max(a.y, b.y) + tol, std::min(a.x, b.x) - tol,
                       std::max(a.x, b.x) + tol});
}

// geom::OnSegment(p, s.a, s.b, eps_), its box read from s: the bounds are
// the ones it computes, and a NaN coordinate fails it as there.
bool PreparedOperand::OnSegment(const Coord& p, const Segment& s) const {
  return p.x >= s.x_lo && p.x <= s.x_hi && p.y >= s.y_lo && p.y <= s.y_hi &&
         geom::Orientation(s.a, s.b, p, eps_) == 0;
}

// The ring of segments_[first, end): its box is the union of each
// segment's box widened by OnSegment's tolerance in y (y_lo, y_hi) and by
// that tolerance plus the rounding slack of RingEdgeStep's crossing in x.
// A point outside it lies on no segment (OnSegment's box test fails). Its
// +x ray crosses no edge when the point is right of, above or below the
// box; left of the box the ray crosses every edge that straddles p.y, an
// even number on a closed ring, so the parity does not change either. The
// computed crossing a.x + t * (b.x - a.x), t in [0, 1], lies within
// 8 * DBL_EPSILON * max(|a.x|, |b.x|) (plus an underflow term) of the
// edge's x-range while no difference overflows; a ring with a coordinate
// that is NaN, infinite or beyond kBoxLimit gets no box.
void PreparedOperand::AddRing(uint32_t first) {
  constexpr double kBoxLimit = 1e300;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Ring ring{{first, static_cast<uint32_t>(segments_.size())},
            kInf, -kInf, kInf, -kInf};
  bool bounded = true;
  for (uint32_t i = ring.segs.begin; i < ring.segs.end; ++i) {
    const Segment& s = segments_[i];
    for (const double v : {s.a.x, s.a.y, s.b.x, s.b.y}) {
      bounded = bounded && std::fabs(v) <= kBoxLimit;
    }
    const double slack =
        geom::OnSegmentTolerance(s.a, s.b, eps_) +
        8 * DBL_EPSILON * std::max(std::fabs(s.a.x), std::fabs(s.b.x)) +
        DBL_MIN;
    ring.x_lo = std::min(ring.x_lo, std::min(s.a.x, s.b.x) - slack);
    ring.x_hi = std::max(ring.x_hi, std::max(s.a.x, s.b.x) + slack);
    ring.y_lo = std::min(ring.y_lo, s.y_lo);
    ring.y_hi = std::max(ring.y_hi, s.y_hi);
  }
  if (!bounded) {
    ring.x_lo = ring.y_lo = -kInf;
    ring.x_hi = ring.y_hi = kInf;
  }
  rings_.push_back(ring);
}

bool PreparedOperand::OnAnySegment(const Coord& p, Range segs) const {
  for (uint32_t i = segs.begin; i < segs.end; ++i) {
    const Segment& s = segments_[i];
    if (p.y < s.y_lo || p.y > s.y_hi) continue;
    if (OnSegment(p, s)) return true;
  }
  return false;
}

// algo::LocateInPolygon over the prepared rings: boundary if on any ring,
// interior if inside an odd number of rings (even-odd).
algo::RingLocation PreparedOperand::LocateInPolygon(const Coord& p,
                                                    const Element& poly) const {
  bool parity = false;
  for (uint32_t r = poly.begin; r < poly.end; ++r) {
    const Ring& ring = rings_[r];
    if (p.x < ring.x_lo || p.x > ring.x_hi || p.y < ring.y_lo ||
        p.y > ring.y_hi) {
      continue;  // the ring adds nothing (AddRing)
    }
    bool inside = false;
    for (uint32_t i = ring.segs.begin; i < ring.segs.end; ++i) {
      const Segment& s = segments_[i];
      if (p.y < s.y_lo || p.y > s.y_hi) continue;
      // algo::RingEdgeStep, with OnSegment's box read from s.
      if (OnSegment(p, s)) return algo::RingLocation::kBoundary;
      if ((s.a.y > p.y) != (s.b.y > p.y)) {
        const double x_cross =
            s.a.x + (p.y - s.a.y) / (s.b.y - s.a.y) * (s.b.x - s.a.x);
        if (x_cross > p.x) inside = !inside;
      }
    }
    parity ^= inside;
  }
  return parity ? algo::RingLocation::kInterior : algo::RingLocation::kExterior;
}

void PreparedOperand::ScanElements(const Coord& p, size_t first, size_t last,
                                   Scan* scan) const {
  for (size_t i = first; i < last; ++i) {
    const Element& e = elements_[i];
    switch (e.kind) {
      case Element::Kind::kPoint:
        if (CoordsEqual(e.p, p, eps_)) scan->point_interior = true;
        break;
      case Element::Kind::kEmptyLine:
        scan->has_empty_line_element = true;
        break;
      case Element::Kind::kLine:
        if (e.open) {
          if (CoordsEqual(e.p, p, eps_)) scan->endpoint_count++;
          if (CoordsEqual(e.q, p, eps_)) scan->endpoint_count++;
        }
        if (!scan->on_line && OnAnySegment(p, {e.begin, e.end})) {
          scan->on_line = true;
        }
        break;
      case Element::Kind::kPolygon: {
        const auto loc = LocateInPolygon(p, e);
        if (loc == algo::RingLocation::kInterior) scan->areal_interior = true;
        if (loc == algo::RingLocation::kBoundary) scan->areal_boundary = true;
        break;
      }
    }
  }
}

Location PreparedOperand::Locate(const Coord& p,
                                 const faults::FaultState* faults,
                                 Tally* tally, Location* areal) const {
  if (collection_ && faults &&
      faults->IsEnabled(faults::FaultId::kGeosGcBoundaryLastOneWins)) {
    // Injected bug (paper Listing 6): resolve each element independently
    // and let the last non-exterior element win, instead of combining with
    // interior priority. The ranges partition the elements, so the areal
    // flags OR'ed over them are the whole scan's.
    Location result = Location::kExterior;
    bool areal_interior = false;
    bool areal_boundary = false;
    size_t first = 0;
    for (const uint32_t last : element_ends_) {
      Scan scan;
      ScanElements(p, first, last, &scan);
      areal_interior = areal_interior || scan.areal_interior;
      areal_boundary = areal_boundary || scan.areal_boundary;
      const Location loc = Resolve(scan, nullptr, tally);
      if (loc != Location::kExterior) {
        tally->Fire(faults::FaultId::kGeosGcBoundaryLastOneWins);
        result = loc;
      }
      first = last;
    }
    if (areal) *areal = ArealLocation(areal_interior, areal_boundary);
    return result;
  }

  Scan scan;
  ScanElements(p, 0, elements_.size(), &scan);
  if (areal) *areal = ArealLocation(scan.areal_interior, scan.areal_boundary);
  return Resolve(scan, faults, tally);
}

Location PreparedOperand::LocateAreal(const Coord& p) const {
  bool boundary = false;
  bool interior = false;
  for (const Element& e : elements_) {
    if (e.kind != Element::Kind::kPolygon) continue;
    const auto loc = LocateInPolygon(p, e);
    if (loc == algo::RingLocation::kInterior) interior = true;
    if (loc == algo::RingLocation::kBoundary) boundary = true;
  }
  return ArealLocation(interior, boundary);
}

Location LocatePoint(const Coord& p, const Geometry& g, double eps,
                     const faults::FaultState* faults) {
  Tally tally;
  const Location loc = PreparedOperand(g, eps).Locate(p, faults, &tally);
  tally.Apply(faults);
  return loc;
}

Location LocateAreal(const Coord& p, const Geometry& g, double eps) {
  return PreparedOperand(g, eps).LocateAreal(p);
}

}  // namespace spatter::relate
