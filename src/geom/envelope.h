// Axis-aligned bounding box.
#ifndef SPATTER_GEOM_ENVELOPE_H_
#define SPATTER_GEOM_ENVELOPE_H_

#include <algorithm>
#include <limits>

#include "geom/coordinate.h"

namespace spatter::geom {

/// Axis-aligned 2D bounding box. A default-constructed Envelope is "null"
/// (empty); expanding a null envelope initializes it.
class Envelope {
 public:
  Envelope() = default;
  Envelope(double min_x, double min_y, double max_x, double max_y)
      : min_x_(min_x), min_y_(min_y), max_x_(max_x), max_y_(max_y) {}
  explicit Envelope(const Coord& c) : Envelope(c.x, c.y, c.x, c.y) {}

  bool IsNull() const { return min_x_ > max_x_; }

  double min_x() const { return min_x_; }
  double min_y() const { return min_y_; }
  double max_x() const { return max_x_; }
  double max_y() const { return max_y_; }
  double Width() const { return IsNull() ? 0.0 : max_x_ - min_x_; }
  double Height() const { return IsNull() ? 0.0 : max_y_ - min_y_; }

  void ExpandToInclude(const Coord& c) {
    min_x_ = std::min(min_x_, c.x);
    min_y_ = std::min(min_y_, c.y);
    max_x_ = std::max(max_x_, c.x);
    max_y_ = std::max(max_y_, c.y);
  }
  void ExpandToInclude(const Envelope& e) {
    if (e.IsNull()) return;
    min_x_ = std::min(min_x_, e.min_x_);
    min_y_ = std::min(min_y_, e.min_y_);
    max_x_ = std::max(max_x_, e.max_x_);
    max_y_ = std::max(max_y_, e.max_y_);
  }
  /// Grows the box by `d` on every side.
  void ExpandBy(double d) {
    if (IsNull()) return;
    min_x_ -= d;
    min_y_ -= d;
    max_x_ += d;
    max_y_ += d;
  }

  bool Intersects(const Envelope& o) const {
    if (IsNull() || o.IsNull()) return false;
    return !(o.min_x_ > max_x_ || o.max_x_ < min_x_ || o.min_y_ > max_y_ ||
             o.max_y_ < min_y_);
  }
  bool Contains(const Envelope& o) const {
    if (IsNull() || o.IsNull()) return false;
    return o.min_x_ >= min_x_ && o.max_x_ <= max_x_ && o.min_y_ >= min_y_ &&
           o.max_y_ <= max_y_;
  }
  bool Contains(const Coord& c) const {
    if (IsNull()) return false;
    return c.x >= min_x_ && c.x <= max_x_ && c.y >= min_y_ && c.y <= max_y_;
  }

  bool operator==(const Envelope& o) const {
    if (IsNull() && o.IsNull()) return true;
    return min_x_ == o.min_x_ && min_y_ == o.min_y_ && max_x_ == o.max_x_ &&
           max_y_ == o.max_y_;
  }

 private:
  double min_x_ = std::numeric_limits<double>::infinity();
  double min_y_ = std::numeric_limits<double>::infinity();
  double max_x_ = -std::numeric_limits<double>::infinity();
  double max_y_ = -std::numeric_limits<double>::infinity();
};

}  // namespace spatter::geom

#endif  // SPATTER_GEOM_ENVELOPE_H_
