// Geometry class hierarchy (OGC Simple Features, 2D subset).
//
// Seven concrete types: Point, LineString, Polygon, MultiPoint,
// MultiLineString, MultiPolygon, GeometryCollection. The three MULTI types
// derive from GeometryCollection (JTS-style) with an element-type
// constraint enforced at construction.
#ifndef SPATTER_GEOM_GEOMETRY_H_
#define SPATTER_GEOM_GEOMETRY_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "geom/coordinate.h"
#include "geom/envelope.h"

namespace spatter::geom {

enum class GeomType {
  kPoint,
  kLineString,
  kPolygon,
  kMultiPoint,
  kMultiLineString,
  kMultiPolygon,
  kGeometryCollection,
};

/// WKT keyword for a type ("POINT", "MULTIPOLYGON", ...).
const char* GeomTypeName(GeomType type);

/// True for the three MULTI types and GEOMETRYCOLLECTION.
bool IsCollectionType(GeomType type);

/// Topological dimension of a (non-empty) instance of the type:
/// 0 for POINT/MULTIPOINT, 1 for lines, 2 for polygons; collections take
/// the max over elements, so this returns -1 for GEOMETRYCOLLECTION.
int TypeDimension(GeomType type);

class Geometry;
using GeomPtr = std::unique_ptr<Geometry>;

/// Abstract base of all geometries. Instances are mutable value-like
/// objects owned through GeomPtr; Clone() performs a deep copy.
class Geometry {
 public:
  virtual ~Geometry() = default;

  virtual GeomType type() const = 0;
  /// True if the geometry contains no coordinates (recursively).
  virtual bool IsEmpty() const = 0;
  /// Topological dimension: 0/1/2; -1 when empty.
  virtual int Dimension() const = 0;
  /// Bounding box; null for empty geometries.
  virtual Envelope GetEnvelope() const = 0;
  /// Deep copy.
  virtual GeomPtr Clone() const = 0;
  /// Applies `fn` to every coordinate in place (affine transforms etc.).
  virtual void MutateCoords(const std::function<Coord(const Coord&)>& fn) = 0;
  /// Total number of coordinates (recursively).
  virtual size_t NumCoords() const = 0;
  /// Structural equality: same type, same element order, same coordinates.
  virtual bool EqualsExact(const Geometry& other) const = 0;

  /// WKT keyword of this geometry's type.
  const char* TypeName() const { return GeomTypeName(type()); }
  /// Serializes to WKT (see wkt_writer.h).
  std::string ToWkt() const;

  /// True if the geometry or any nested element is of MULTI/MIXED kind.
  bool IsCollection() const { return IsCollectionType(type()); }
};

/// POINT: zero or one coordinate ("POINT EMPTY" has none).
class Point final : public Geometry {
 public:
  Point() = default;
  explicit Point(Coord c) : coord_(c) {}
  Point(double x, double y) : coord_(Coord{x, y}) {}

  GeomType type() const override { return GeomType::kPoint; }
  bool IsEmpty() const override { return !coord_.has_value(); }
  int Dimension() const override { return IsEmpty() ? -1 : 0; }
  Envelope GetEnvelope() const override {
    return IsEmpty() ? Envelope() : Envelope(*coord_);
  }
  GeomPtr Clone() const override { return std::make_unique<Point>(*this); }
  void MutateCoords(const std::function<Coord(const Coord&)>& fn) override {
    if (coord_) coord_ = fn(*coord_);
  }
  size_t NumCoords() const override { return coord_ ? 1 : 0; }
  bool EqualsExact(const Geometry& other) const override;

  const std::optional<Coord>& coord() const { return coord_; }
  void set_coord(Coord c) { coord_ = c; }

 private:
  std::optional<Coord> coord_;
};

/// LINESTRING: an ordered coordinate sequence. A valid instance has 0 or
/// >= 2 points; the model itself also tolerates degenerate sequences so the
/// fuzzer can feed them to validity checks.
class LineString : public Geometry {
 public:
  LineString() = default;
  explicit LineString(std::vector<Coord> pts) : pts_(std::move(pts)) {}

  GeomType type() const override { return GeomType::kLineString; }
  bool IsEmpty() const override { return pts_.empty(); }
  int Dimension() const override { return IsEmpty() ? -1 : 1; }
  Envelope GetEnvelope() const override {
    Envelope e;
    for (const auto& p : pts_) e.ExpandToInclude(p);
    return e;
  }
  GeomPtr Clone() const override {
    return std::make_unique<LineString>(*this);
  }
  void MutateCoords(const std::function<Coord(const Coord&)>& fn) override {
    for (auto& p : pts_) p = fn(p);
  }
  size_t NumCoords() const override { return pts_.size(); }
  bool EqualsExact(const Geometry& other) const override;

  const std::vector<Coord>& points() const { return pts_; }
  std::vector<Coord>& mutable_points() { return pts_; }
  size_t NumPoints() const { return pts_.size(); }
  const Coord& PointAt(size_t i) const { return pts_[i]; }

  /// First == last coordinate (and at least 2 points).
  bool IsClosed() const {
    return pts_.size() >= 2 && pts_.front() == pts_.back();
  }
  /// Closed with at least 4 points — usable as a polygon ring.
  bool IsRing() const { return pts_.size() >= 4 && IsClosed(); }

 private:
  std::vector<Coord> pts_;
};

/// POLYGON: ring 0 is the exterior shell, rings 1..n are holes. Each ring
/// is stored as a closed coordinate sequence (first == last when valid).
class Polygon final : public Geometry {
 public:
  using Ring = std::vector<Coord>;

  Polygon() = default;
  explicit Polygon(std::vector<Ring> rings) : rings_(std::move(rings)) {}
  /// Shell-only convenience.
  explicit Polygon(Ring shell) { rings_.push_back(std::move(shell)); }

  GeomType type() const override { return GeomType::kPolygon; }
  bool IsEmpty() const override {
    return rings_.empty() || rings_[0].empty();
  }
  int Dimension() const override { return IsEmpty() ? -1 : 2; }
  Envelope GetEnvelope() const override {
    // All rings participate: the random-shape strategy produces invalid
    // polygons whose "holes" escape the shell, and the even-odd location
    // semantics still treat those rings as area. Envelope-based pruning
    // (index scans, prepared geometry) must stay conservative for them.
    Envelope e;
    for (const auto& ring : rings_) {
      for (const auto& p : ring) e.ExpandToInclude(p);
    }
    return e;
  }
  GeomPtr Clone() const override { return std::make_unique<Polygon>(*this); }
  void MutateCoords(const std::function<Coord(const Coord&)>& fn) override {
    for (auto& ring : rings_) {
      for (auto& p : ring) p = fn(p);
    }
  }
  size_t NumCoords() const override {
    size_t n = 0;
    for (const auto& r : rings_) n += r.size();
    return n;
  }
  bool EqualsExact(const Geometry& other) const override;

  const std::vector<Ring>& rings() const { return rings_; }
  std::vector<Ring>& mutable_rings() { return rings_; }
  size_t NumRings() const { return rings_.size(); }
  const Ring& Shell() const { return rings_[0]; }
  size_t NumHoles() const { return rings_.empty() ? 0 : rings_.size() - 1; }

 private:
  std::vector<Ring> rings_;
};

/// GEOMETRYCOLLECTION: heterogeneous elements. Base class of the MULTI
/// types, which restrict the element type.
class GeometryCollection : public Geometry {
 public:
  GeometryCollection() = default;
  explicit GeometryCollection(std::vector<GeomPtr> elems)
      : elems_(std::move(elems)) {}

  GeomType type() const override { return GeomType::kGeometryCollection; }
  bool IsEmpty() const override {
    for (const auto& e : elems_) {
      if (!e->IsEmpty()) return false;
    }
    return true;
  }
  int Dimension() const override {
    int d = -1;
    for (const auto& e : elems_) d = std::max(d, e->Dimension());
    return d;
  }
  Envelope GetEnvelope() const override {
    Envelope env;
    for (const auto& e : elems_) env.ExpandToInclude(e->GetEnvelope());
    return env;
  }
  GeomPtr Clone() const override;
  void MutateCoords(const std::function<Coord(const Coord&)>& fn) override {
    for (auto& e : elems_) e->MutateCoords(fn);
  }
  size_t NumCoords() const override {
    size_t n = 0;
    for (const auto& e : elems_) n += e->NumCoords();
    return n;
  }
  bool EqualsExact(const Geometry& other) const override;

  const std::vector<GeomPtr>& elements() const { return elems_; }
  std::vector<GeomPtr>& mutable_elements() { return elems_; }
  size_t NumElements() const { return elems_.size(); }
  const Geometry& ElementAt(size_t i) const { return *elems_[i]; }
  void AddElement(GeomPtr g) { elems_.push_back(std::move(g)); }

 protected:
  GeomPtr CloneInto(std::unique_ptr<GeometryCollection> target) const;

 private:
  std::vector<GeomPtr> elems_;
};

/// MULTIPOINT: all elements are Points.
class MultiPoint final : public GeometryCollection {
 public:
  MultiPoint() = default;
  explicit MultiPoint(std::vector<GeomPtr> elems)
      : GeometryCollection(std::move(elems)) {}
  GeomType type() const override { return GeomType::kMultiPoint; }
  GeomPtr Clone() const override {
    return CloneInto(std::make_unique<MultiPoint>());
  }
};

/// MULTILINESTRING: all elements are LineStrings.
class MultiLineString final : public GeometryCollection {
 public:
  MultiLineString() = default;
  explicit MultiLineString(std::vector<GeomPtr> elems)
      : GeometryCollection(std::move(elems)) {}
  GeomType type() const override { return GeomType::kMultiLineString; }
  GeomPtr Clone() const override {
    return CloneInto(std::make_unique<MultiLineString>());
  }
};

/// MULTIPOLYGON: all elements are Polygons.
class MultiPolygon final : public GeometryCollection {
 public:
  MultiPolygon() = default;
  explicit MultiPolygon(std::vector<GeomPtr> elems)
      : GeometryCollection(std::move(elems)) {}
  GeomType type() const override { return GeomType::kMultiPolygon; }
  GeomPtr Clone() const override {
    return CloneInto(std::make_unique<MultiPolygon>());
  }
};

// ---------------------------------------------------------------------------
// Construction helpers.

/// Empty geometry of the given type (e.g. "POLYGON EMPTY").
GeomPtr MakeEmpty(GeomType type);
GeomPtr MakePoint(double x, double y);
GeomPtr MakeLineString(std::vector<Coord> pts);
GeomPtr MakePolygon(std::vector<Polygon::Ring> rings);
/// Collection of the given collection type from elements.
GeomPtr MakeCollection(GeomType type, std::vector<GeomPtr> elems);

// ---------------------------------------------------------------------------
// Traversal helpers.

/// Invokes `fn` on every non-collection (basic) element, recursively.
/// An empty collection invokes nothing.
void ForEachBasic(const Geometry& g,
                  const std::function<void(const Geometry&)>& fn);

/// Collects pointers to every basic element, recursively.
std::vector<const Geometry*> FlattenBasic(const Geometry& g);

/// Element type expected by a MULTI type (kPoint for kMultiPoint, ...).
/// Returns nullopt for non-MULTI types.
std::optional<GeomType> MultiElementType(GeomType type);

// Downcast helpers (checked in debug builds via the type() switch misuse
// being caught by tests rather than RTTI).
inline const Point& AsPoint(const Geometry& g) {
  return static_cast<const Point&>(g);
}
inline const LineString& AsLineString(const Geometry& g) {
  return static_cast<const LineString&>(g);
}
inline const Polygon& AsPolygon(const Geometry& g) {
  return static_cast<const Polygon&>(g);
}
inline const GeometryCollection& AsCollection(const Geometry& g) {
  return static_cast<const GeometryCollection&>(g);
}

}  // namespace spatter::geom

#endif  // SPATTER_GEOM_GEOMETRY_H_
