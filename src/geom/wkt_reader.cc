#include "geom/wkt_reader.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/strings.h"

namespace spatter::geom {

namespace {

/// Hand-written recursive-descent WKT parser.
class WktParser {
 public:
  explicit WktParser(const std::string& text) : text_(text) {}

  Result<GeomPtr> Parse() {
    SPATTER_ASSIGN_OR_RETURN(GeomPtr g, ParseGeometry());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing characters after WKT at offset " +
                                     std::to_string(pos_));
    }
    return g;
  }

 private:
  Result<GeomPtr> ParseGeometry() {
    SPATTER_ASSIGN_OR_RETURN(std::string kw, ReadKeyword());
    const std::string upper = ToUpperAscii(kw);
    if (upper == "POINT") return ParsePointText();
    if (upper == "LINESTRING") return ParseLineStringText();
    if (upper == "POLYGON") return ParsePolygonText();
    if (upper == "MULTIPOINT") return ParseMultiPointText();
    if (upper == "MULTILINESTRING") return ParseMultiLineStringText();
    if (upper == "MULTIPOLYGON") return ParseMultiPolygonText();
    if (upper == "GEOMETRYCOLLECTION") return ParseCollectionText();
    return Status::InvalidArgument("unknown geometry type keyword '" + kw +
                                   "'");
  }

  Result<GeomPtr> ParsePointText() {
    if (ConsumeEmpty()) return MakeEmpty(GeomType::kPoint);
    SPATTER_RETURN_NOT_OK(Expect('('));
    SPATTER_ASSIGN_OR_RETURN(Coord c, ReadCoord());
    SPATTER_RETURN_NOT_OK(Expect(')'));
    return GeomPtr(std::make_unique<Point>(c));
  }

  Result<GeomPtr> ParseLineStringText() {
    if (ConsumeEmpty()) return MakeEmpty(GeomType::kLineString);
    SPATTER_ASSIGN_OR_RETURN(std::vector<Coord> pts, ReadCoordSeq());
    return GeomPtr(std::make_unique<LineString>(std::move(pts)));
  }

  Result<GeomPtr> ParsePolygonText() {
    if (ConsumeEmpty()) return MakeEmpty(GeomType::kPolygon);
    SPATTER_RETURN_NOT_OK(Expect('('));
    std::vector<Polygon::Ring> rings;
    do {
      SPATTER_ASSIGN_OR_RETURN(std::vector<Coord> ring, ReadCoordSeq());
      rings.push_back(std::move(ring));
    } while (Consume(','));
    SPATTER_RETURN_NOT_OK(Expect(')'));
    return GeomPtr(std::make_unique<Polygon>(std::move(rings)));
  }

  Result<GeomPtr> ParseMultiPointText() {
    if (ConsumeEmpty()) return MakeEmpty(GeomType::kMultiPoint);
    SPATTER_RETURN_NOT_OK(Expect('('));
    std::vector<GeomPtr> elems;
    do {
      SkipSpace();
      if (ConsumeEmpty()) {
        elems.push_back(MakeEmpty(GeomType::kPoint));
      } else if (Peek() == '(') {
        // "MULTIPOINT((1 2),(3 4))" form.
        SPATTER_RETURN_NOT_OK(Expect('('));
        SPATTER_ASSIGN_OR_RETURN(Coord c, ReadCoord());
        SPATTER_RETURN_NOT_OK(Expect(')'));
        elems.push_back(std::make_unique<Point>(c));
      } else {
        // "MULTIPOINT(1 2, 3 4)" bare form.
        SPATTER_ASSIGN_OR_RETURN(Coord c, ReadCoord());
        elems.push_back(std::make_unique<Point>(c));
      }
    } while (Consume(','));
    SPATTER_RETURN_NOT_OK(Expect(')'));
    return GeomPtr(std::make_unique<MultiPoint>(std::move(elems)));
  }

  Result<GeomPtr> ParseMultiLineStringText() {
    if (ConsumeEmpty()) return MakeEmpty(GeomType::kMultiLineString);
    SPATTER_RETURN_NOT_OK(Expect('('));
    std::vector<GeomPtr> elems;
    do {
      SkipSpace();
      if (ConsumeEmpty()) {
        elems.push_back(MakeEmpty(GeomType::kLineString));
      } else {
        SPATTER_ASSIGN_OR_RETURN(std::vector<Coord> pts, ReadCoordSeq());
        elems.push_back(std::make_unique<LineString>(std::move(pts)));
      }
    } while (Consume(','));
    SPATTER_RETURN_NOT_OK(Expect(')'));
    return GeomPtr(std::make_unique<MultiLineString>(std::move(elems)));
  }

  Result<GeomPtr> ParseMultiPolygonText() {
    if (ConsumeEmpty()) return MakeEmpty(GeomType::kMultiPolygon);
    SPATTER_RETURN_NOT_OK(Expect('('));
    std::vector<GeomPtr> elems;
    do {
      SkipSpace();
      if (ConsumeEmpty()) {
        elems.push_back(MakeEmpty(GeomType::kPolygon));
        continue;
      }
      SPATTER_RETURN_NOT_OK(Expect('('));
      std::vector<Polygon::Ring> rings;
      do {
        SPATTER_ASSIGN_OR_RETURN(std::vector<Coord> ring, ReadCoordSeq());
        rings.push_back(std::move(ring));
      } while (Consume(','));
      SPATTER_RETURN_NOT_OK(Expect(')'));
      elems.push_back(std::make_unique<Polygon>(std::move(rings)));
    } while (Consume(','));
    SPATTER_RETURN_NOT_OK(Expect(')'));
    return GeomPtr(std::make_unique<MultiPolygon>(std::move(elems)));
  }

  Result<GeomPtr> ParseCollectionText() {
    if (ConsumeEmpty()) return MakeEmpty(GeomType::kGeometryCollection);
    SPATTER_RETURN_NOT_OK(Expect('('));
    std::vector<GeomPtr> elems;
    do {
      SPATTER_ASSIGN_OR_RETURN(GeomPtr e, ParseGeometry());
      elems.push_back(std::move(e));
    } while (Consume(','));
    SPATTER_RETURN_NOT_OK(Expect(')'));
    return GeomPtr(std::make_unique<GeometryCollection>(std::move(elems)));
  }

  Result<std::vector<Coord>> ReadCoordSeq() {
    SPATTER_RETURN_NOT_OK(Expect('('));
    std::vector<Coord> pts;
    do {
      SPATTER_ASSIGN_OR_RETURN(Coord c, ReadCoord());
      pts.push_back(c);
    } while (Consume(','));
    SPATTER_RETURN_NOT_OK(Expect(')'));
    return pts;
  }

  Result<Coord> ReadCoord() {
    SPATTER_ASSIGN_OR_RETURN(double x, ReadNumber());
    SPATTER_ASSIGN_OR_RETURN(double y, ReadNumber());
    return Coord{x, y};
  }

  Result<double> ReadNumber() {
    SkipSpace();
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
      pos_++;
    }
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.')) {
      digits = digits || std::isdigit(static_cast<unsigned char>(text_[pos_]));
      pos_++;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      pos_++;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        pos_++;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        pos_++;
      }
    }
    if (!digits) {
      return Status::InvalidArgument("expected number at offset " +
                                     std::to_string(start));
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Status::InvalidArgument("malformed number '" + token + "'");
    }
    // strtod overflows to +-inf (1e309): a coordinate must be finite, as
    // the writer cannot print anything else back.
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("number out of range '" + token + "'");
    }
    return v;
  }

  Result<std::string> ReadKeyword() {
    SkipSpace();
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isalpha(static_cast<unsigned char>(text_[pos_]))) {
      pos_++;
    }
    if (pos_ == start) {
      return Status::InvalidArgument("expected type keyword at offset " +
                                     std::to_string(start));
    }
    return text_.substr(start, pos_ - start);
  }

  bool ConsumeEmpty() {
    SkipSpace();
    static const std::string kEmpty = "EMPTY";
    if (pos_ + kEmpty.size() > text_.size()) return false;
    for (size_t i = 0; i < kEmpty.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(text_[pos_ + i])) !=
          kEmpty[i]) {
        return false;
      }
    }
    pos_ += kEmpty.size();
    return true;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      pos_++;
    }
  }

  char Peek() {
    SkipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      pos_++;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Consume(c)) {
      return Status::InvalidArgument(std::string("expected '") + c +
                                     "' at offset " + std::to_string(pos_));
    }
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<GeomPtr> ReadWkt(const std::string& wkt) {
  return WktParser(wkt).Parse();
}

}  // namespace spatter::geom
