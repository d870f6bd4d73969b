// DE-9IM intersection matrix (paper §2.2, Definition 2.3).
#ifndef SPATTER_RELATE_IM_MATRIX_H_
#define SPATTER_RELATE_IM_MATRIX_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace spatter::relate {

/// Location classes of DE-9IM, indexing the matrix rows/columns.
enum class Location { kInterior = 0, kBoundary = 1, kExterior = 2 };

const char* LocationName(Location loc);

/// The 3x3 dimension matrix. Entries hold the dimension of the pairwise
/// intersection: -1 encodes F (empty), otherwise 0, 1, or 2. A cell is one
/// byte, so the relate memo's records stay small.
class IntersectionMatrix {
 public:
  static constexpr int kFalse = -1;

  /// All entries F.
  IntersectionMatrix();
  /// Parses a 9-character code like "FF21F1102" (digits, F; T is not a
  /// code character and is rejected here — it only appears in patterns).
  static Result<IntersectionMatrix> FromCode(const std::string& code);

  int At(Location a, Location b) const {
    return dims_[static_cast<int>(a)][static_cast<int>(b)];
  }
  void Set(Location a, Location b, int dim) {
    dims_[static_cast<int>(a)][static_cast<int>(b)] = static_cast<int8_t>(dim);
  }
  /// Raises the entry to `dim` if larger (dimension lattice F<0<1<2).
  void SetAtLeast(Location a, Location b, int dim) {
    int8_t& cell = dims_[static_cast<int>(a)][static_cast<int>(b)];
    if (dim > cell) cell = static_cast<int8_t>(dim);
  }

  /// 9-character DE-9IM code ("FF21F1102").
  std::string Code() const;

  /// Matches a 9-character pattern over {T, F, 0, 1, 2, *}:
  /// T = any non-empty (dim >= 0), F = empty, digit = exact dimension,
  /// * = anything. Invalid pattern characters never match.
  bool Matches(const std::string& pattern) const;

  /// Transposed matrix: R(g2, g1) from R(g1, g2).
  IntersectionMatrix Transposed() const;

  bool operator==(const IntersectionMatrix& o) const;

 private:
  int8_t dims_[3][3];
};

}  // namespace spatter::relate

#endif  // SPATTER_RELATE_IM_MATRIX_H_
