#include "relate/im_matrix.h"

namespace spatter::relate {

const char* LocationName(Location loc) {
  switch (loc) {
    case Location::kInterior:
      return "Interior";
    case Location::kBoundary:
      return "Boundary";
    case Location::kExterior:
      return "Exterior";
  }
  return "Unknown";
}

IntersectionMatrix::IntersectionMatrix() {
  for (auto& row : dims_) {
    for (auto& cell : row) cell = kFalse;
  }
}

Result<IntersectionMatrix> IntersectionMatrix::FromCode(
    const std::string& code) {
  if (code.size() != 9) {
    return Status::InvalidArgument("DE-9IM code must have 9 characters");
  }
  IntersectionMatrix im;
  for (int i = 0; i < 9; ++i) {
    const char c = code[i];
    int dim;
    switch (c) {
      case 'F':
      case 'f':
        dim = kFalse;
        break;
      case '0':
        dim = 0;
        break;
      case '1':
        dim = 1;
        break;
      case '2':
        dim = 2;
        break;
      default:
        return Status::InvalidArgument(
            std::string("invalid DE-9IM code character '") + c + "'");
    }
    im.dims_[i / 3][i % 3] = static_cast<int8_t>(dim);
  }
  return im;
}

std::string IntersectionMatrix::Code() const {
  std::string out(9, 'F');
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      const int d = dims_[i][j];
      out[i * 3 + j] = d < 0 ? 'F' : static_cast<char>('0' + d);
    }
  }
  return out;
}

bool IntersectionMatrix::Matches(const std::string& pattern) const {
  if (pattern.size() != 9) return false;
  for (int i = 0; i < 9; ++i) {
    const int d = dims_[i / 3][i % 3];
    switch (pattern[i]) {
      case '*':
        break;
      case 'T':
      case 't':
        if (d < 0) return false;
        break;
      case 'F':
      case 'f':
        if (d >= 0) return false;
        break;
      case '0':
      case '1':
      case '2':
        if (d != pattern[i] - '0') return false;
        break;
      default:
        return false;
    }
  }
  return true;
}

IntersectionMatrix IntersectionMatrix::Transposed() const {
  IntersectionMatrix out;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      out.dims_[j][i] = dims_[i][j];
    }
  }
  return out;
}

bool IntersectionMatrix::operator==(const IntersectionMatrix& o) const {
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (dims_[i][j] != o.dims_[i][j]) return false;
    }
  }
  return true;
}

}  // namespace spatter::relate
