// Runtime value for the mini SQL engine.
#ifndef SPATTER_ENGINE_VALUE_H_
#define SPATTER_ENGINE_VALUE_H_

#include <memory>
#include <string>

#include "geom/geometry.h"

namespace spatter::engine {

/// SQL value: NULL, boolean, integer, double, string, or geometry.
/// Geometries are shared so rows can be copied cheaply.
class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kGeometry };

  Value() : kind_(Kind::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) {
    Value v;
    v.kind_ = Kind::kBool;
    v.bool_ = b;
    return v;
  }
  static Value Int(int64_t i) {
    Value v;
    v.kind_ = Kind::kInt;
    v.int_ = i;
    return v;
  }
  static Value Double(double d) {
    Value v;
    v.kind_ = Kind::kDouble;
    v.double_ = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.kind_ = Kind::kString;
    v.string_ = std::move(s);
    return v;
  }
  static Value Geometry(std::shared_ptr<const geom::Geometry> g) {
    Value v;
    v.kind_ = Kind::kGeometry;
    v.geometry_ = std::move(g);
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool bool_value() const { return bool_; }
  int64_t int_value() const { return int_; }
  double double_value() const { return double_; }
  /// Numeric coercion (int or double).
  double AsDouble() const {
    return kind_ == Kind::kInt ? static_cast<double>(int_) : double_;
  }
  const std::string& string_value() const { return string_; }
  const std::shared_ptr<const geom::Geometry>& geometry() const {
    return geometry_;
  }
  /// True when the geometry is known to pass algo::CheckValid. A strict
  /// dialect's CoerceGeometry marks what it returns, and copies keep the
  /// mark, so a stored row is checked at INSERT and not again at every
  /// predicate call (functions.h ToGeometry).
  bool valid_checked() const { return valid_checked_; }
  void mark_valid_checked() { valid_checked_ = true; }

  /// Display form used by ExecResult ("{0}", "{t}", WKT, "NULL").
  std::string ToDisplayString() const;

 private:
  Kind kind_;
  bool bool_ = false;
  bool valid_checked_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::shared_ptr<const geom::Geometry> geometry_;
};

}  // namespace spatter::engine

#endif  // SPATTER_ENGINE_VALUE_H_
