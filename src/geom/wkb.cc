#include "geom/wkb.h"

#include <cmath>
#include <cstring>

namespace spatter::geom {

namespace {

enum WkbType : uint32_t {
  kWkbPoint = 1,
  kWkbLineString = 2,
  kWkbPolygon = 3,
  kWkbMultiPoint = 4,
  kWkbMultiLineString = 5,
  kWkbMultiPolygon = 6,
  kWkbGeometryCollection = 7,
};

uint32_t TypeCode(GeomType t) {
  switch (t) {
    case GeomType::kPoint:
      return kWkbPoint;
    case GeomType::kLineString:
      return kWkbLineString;
    case GeomType::kPolygon:
      return kWkbPolygon;
    case GeomType::kMultiPoint:
      return kWkbMultiPoint;
    case GeomType::kMultiLineString:
      return kWkbMultiLineString;
    case GeomType::kMultiPolygon:
      return kWkbMultiPolygon;
    case GeomType::kGeometryCollection:
      return kWkbGeometryCollection;
  }
  return 0;
}

class Writer {
 public:
  void U8(uint8_t v) { out_.push_back(v); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back((v >> (8 * i)) & 0xff);
  }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    for (int i = 0; i < 8; ++i) out_.push_back((bits >> (8 * i)) & 0xff);
  }
  void Coords(const std::vector<Coord>& pts) {
    U32(static_cast<uint32_t>(pts.size()));
    for (const auto& p : pts) {
      F64(p.x);
      F64(p.y);
    }
  }

  void Geometry(const geom::Geometry& g) {
    U8(1);  // little-endian
    U32(TypeCode(g.type()));
    switch (g.type()) {
      case GeomType::kPoint: {
        const auto& p = AsPoint(g);
        if (p.IsEmpty()) {
          // PostGIS convention: POINT EMPTY as NaN coordinates.
          F64(std::nan(""));
          F64(std::nan(""));
        } else {
          F64(p.coord()->x);
          F64(p.coord()->y);
        }
        break;
      }
      case GeomType::kLineString:
        Coords(AsLineString(g).points());
        break;
      case GeomType::kPolygon: {
        const auto& poly = AsPolygon(g);
        U32(static_cast<uint32_t>(poly.NumRings()));
        for (const auto& ring : poly.rings()) Coords(ring);
        break;
      }
      default: {
        const auto& coll = AsCollection(g);
        U32(static_cast<uint32_t>(coll.NumElements()));
        for (size_t i = 0; i < coll.NumElements(); ++i) {
          Geometry(coll.ElementAt(i));
        }
      }
    }
  }

  std::vector<uint8_t> Take() { return std::move(out_); }

 private:
  std::vector<uint8_t> out_;
};

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& data) : data_(data) {}

  Result<GeomPtr> Parse() {
    SPATTER_ASSIGN_OR_RETURN(GeomPtr g, Geometry(0));
    if (pos_ != data_.size()) {
      return Status::InvalidArgument("trailing bytes after WKB geometry");
    }
    return g;
  }

 private:
  Result<GeomPtr> Geometry(int depth) {
    if (depth > 16) {
      return Status::InvalidArgument("WKB nesting too deep");
    }
    SPATTER_ASSIGN_OR_RETURN(uint8_t order, U8());
    if (order > 1) {
      return Status::InvalidArgument("invalid WKB byte order marker");
    }
    big_endian_ = order == 0;
    SPATTER_ASSIGN_OR_RETURN(uint32_t type, U32());
    switch (type) {
      case kWkbPoint: {
        SPATTER_ASSIGN_OR_RETURN(double x, F64());
        SPATTER_ASSIGN_OR_RETURN(double y, F64());
        if (std::isnan(x) && std::isnan(y)) {
          return MakeEmpty(GeomType::kPoint);
        }
        SPATTER_RETURN_NOT_OK(CheckFinite(x, y));
        return MakePoint(x, y);
      }
      case kWkbLineString: {
        SPATTER_ASSIGN_OR_RETURN(std::vector<Coord> pts, Coords());
        return MakeLineString(std::move(pts));
      }
      case kWkbPolygon: {
        SPATTER_ASSIGN_OR_RETURN(uint32_t n, U32());
        if (n > kMaxCount) {
          return Status::InvalidArgument("implausible WKB ring count");
        }
        std::vector<Polygon::Ring> rings;
        for (uint32_t i = 0; i < n; ++i) {
          SPATTER_ASSIGN_OR_RETURN(std::vector<Coord> ring, Coords());
          rings.push_back(std::move(ring));
        }
        return MakePolygon(std::move(rings));
      }
      case kWkbMultiPoint:
      case kWkbMultiLineString:
      case kWkbMultiPolygon:
      case kWkbGeometryCollection: {
        SPATTER_ASSIGN_OR_RETURN(uint32_t n, U32());
        if (n > kMaxCount) {
          return Status::InvalidArgument("implausible WKB element count");
        }
        std::vector<GeomPtr> elems;
        for (uint32_t i = 0; i < n; ++i) {
          SPATTER_ASSIGN_OR_RETURN(GeomPtr e, Geometry(depth + 1));
          elems.push_back(std::move(e));
        }
        GeomType out_type;
        switch (type) {
          case kWkbMultiPoint:
            out_type = GeomType::kMultiPoint;
            break;
          case kWkbMultiLineString:
            out_type = GeomType::kMultiLineString;
            break;
          case kWkbMultiPolygon:
            out_type = GeomType::kMultiPolygon;
            break;
          default:
            out_type = GeomType::kGeometryCollection;
        }
        // MULTI element type constraints.
        if (auto expected = MultiElementType(out_type)) {
          for (const auto& e : elems) {
            if (e->type() != *expected) {
              return Status::InvalidArgument(
                  "WKB MULTI geometry with mismatched element type");
            }
          }
        }
        return MakeCollection(out_type, std::move(elems));
      }
      default:
        return Status::InvalidArgument("unknown WKB geometry type " +
                                       std::to_string(type));
    }
  }

  Result<std::vector<Coord>> Coords() {
    SPATTER_ASSIGN_OR_RETURN(uint32_t n, U32());
    if (n > kMaxCount) {
      return Status::InvalidArgument("implausible WKB point count");
    }
    std::vector<Coord> pts;
    pts.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      SPATTER_ASSIGN_OR_RETURN(double x, F64());
      SPATTER_ASSIGN_OR_RETURN(double y, F64());
      SPATTER_RETURN_NOT_OK(CheckFinite(x, y));
      pts.push_back({x, y});
    }
    return pts;
  }

  // Coordinates must be finite: NaN and +-inf have no WKT form, so a
  // geometry holding one could not be encoded back (TestCaseCodec). The
  // one exception, POINT EMPTY's NaN pair, is handled by the caller.
  static Status CheckFinite(double x, double y) {
    if (!std::isfinite(x) || !std::isfinite(y)) {
      return Status::InvalidArgument("non-finite WKB coordinate");
    }
    return Status::OK();
  }

  Result<uint8_t> U8() {
    if (pos_ + 1 > data_.size()) {
      return Status::InvalidArgument("truncated WKB");
    }
    return data_[pos_++];
  }
  Result<uint32_t> U32() {
    if (pos_ + 4 > data_.size()) {
      return Status::InvalidArgument("truncated WKB");
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const int shift = big_endian_ ? (24 - 8 * i) : (8 * i);
      v |= static_cast<uint32_t>(data_[pos_ + i]) << shift;
    }
    pos_ += 4;
    return v;
  }
  Result<double> F64() {
    if (pos_ + 8 > data_.size()) {
      return Status::InvalidArgument("truncated WKB");
    }
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      const int shift = big_endian_ ? (56 - 8 * i) : (8 * i);
      bits |= static_cast<uint64_t>(data_[pos_ + i]) << shift;
    }
    pos_ += 8;
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }

  static constexpr uint32_t kMaxCount = 1u << 20;
  const std::vector<uint8_t>& data_;
  size_t pos_ = 0;
  bool big_endian_ = false;
};

}  // namespace

std::vector<uint8_t> WriteWkb(const Geometry& g) {
  Writer w;
  w.Geometry(g);
  return w.Take();
}

std::string WriteWkbHex(const Geometry& g) {
  static const char kHex[] = "0123456789ABCDEF";
  const auto bytes = WriteWkb(g);
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

Result<GeomPtr> ReadWkb(const std::vector<uint8_t>& data) {
  return Reader(data).Parse();
}

Result<GeomPtr> ReadWkbHex(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    return Status::InvalidArgument("odd-length WKB hex string");
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::vector<uint8_t> bytes;
  bytes.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("invalid WKB hex character");
    }
    bytes.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return ReadWkb(bytes);
}

}  // namespace spatter::geom
