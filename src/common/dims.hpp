#ifndef TAC_COMMON_DIMS_HPP
#define TAC_COMMON_DIMS_HPP

/// \file dims.hpp
/// \brief 3D extents and integer boxes used throughout the library.

#include <cstddef>
#include <cstdint>
#include <ostream>

namespace tac {

/// Extents of a 3D grid. A value of 1 in trailing axes describes lower
/// dimensional data (nz == 1 -> 2D, ny == nz == 1 -> 1D).
struct Dims3 {
  std::size_t nx = 0;
  std::size_t ny = 0;
  std::size_t nz = 0;

  [[nodiscard]] constexpr std::size_t volume() const { return nx * ny * nz; }

  /// Number of axes with extent > 1, clamped to at least 1 for non-empty
  /// grids; used to select the predictor dimensionality.
  [[nodiscard]] constexpr int dimensionality() const {
    int d = 0;
    if (nx > 1) ++d;
    if (ny > 1) ++d;
    if (nz > 1) ++d;
    return d == 0 ? 1 : d;
  }

  [[nodiscard]] constexpr std::size_t index(std::size_t x, std::size_t y,
                                            std::size_t z) const {
    return x + nx * (y + ny * z);
  }

  friend constexpr bool operator==(const Dims3&, const Dims3&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const Dims3& d) {
  return os << d.nx << "x" << d.ny << "x" << d.nz;
}

/// Half-open axis-aligned box of cells: [lo, hi) in each axis.
struct Box3 {
  std::size_t x0 = 0, y0 = 0, z0 = 0;
  std::size_t x1 = 0, y1 = 0, z1 = 0;

  [[nodiscard]] constexpr Dims3 extents() const {
    return {x1 - x0, y1 - y0, z1 - z0};
  }
  [[nodiscard]] constexpr std::size_t volume() const {
    return extents().volume();
  }
  [[nodiscard]] constexpr bool empty() const {
    return x1 <= x0 || y1 <= y0 || z1 <= z0;
  }
  [[nodiscard]] constexpr bool contains(std::size_t x, std::size_t y,
                                        std::size_t z) const {
    return x >= x0 && x < x1 && y >= y0 && y < y1 && z >= z0 && z < z1;
  }

  friend constexpr bool operator==(const Box3&, const Box3&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const Box3& b) {
  return os << "[" << b.x0 << "," << b.x1 << ")x[" << b.y0 << "," << b.y1
            << ")x[" << b.z0 << "," << b.z1 << ")";
}

/// Ceiling division for grid/block arithmetic. Cannot overflow: a block
/// side of SIZE_MAX still covers any extent with one block.
[[nodiscard]] constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
  return a / b + (a % b != 0);
}

}  // namespace tac

#endif  // TAC_COMMON_DIMS_HPP
