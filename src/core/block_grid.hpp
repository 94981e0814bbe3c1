#ifndef TAC_CORE_BLOCK_GRID_HPP
#define TAC_CORE_BLOCK_GRID_HPP

/// \file block_grid.hpp
/// \brief Unit-block partition of an AMR level grid.
///
/// All three TAC pre-process strategies reason at unit-block granularity:
/// a block is "non-empty" when it contains at least one valid cell. Levels
/// whose extents are not multiples of the block size get clipped edge
/// blocks; extraction buffers zero-fill past the edge and reconstruction
/// skips those cells.

#include <cstdint>

#include "amr/dataset.hpp"
#include "common/array3d.hpp"
#include "common/dims.hpp"

namespace tac::core {

class BlockGrid {
 public:
  BlockGrid(Dims3 cells, std::size_t block_size)
      : cells_(cells),
        block_(block_size),
        blocks_{ceil_div(cells.nx, block_size),
                ceil_div(cells.ny, block_size),
                ceil_div(cells.nz, block_size)} {}

  [[nodiscard]] const Dims3& cell_dims() const { return cells_; }
  [[nodiscard]] std::size_t block_size() const { return block_; }
  [[nodiscard]] const Dims3& block_dims() const { return blocks_; }

  /// Cell box of unit block (bx, by, bz), clipped to the level extents.
  [[nodiscard]] Box3 block_box(std::size_t bx, std::size_t by,
                               std::size_t bz) const {
    return Box3{bx * block_,
                by * block_,
                bz * block_,
                std::min(cells_.nx, (bx + 1) * block_),
                std::min(cells_.ny, (by + 1) * block_),
                std::min(cells_.nz, (bz + 1) * block_)};
  }

 private:
  Dims3 cells_;
  std::size_t block_;
  Dims3 blocks_;
};

/// Per-unit-block occupancy (1 = contains at least one valid cell), from
/// the runs of the level's mask. The walk also counts the level's valid
/// cells, stored to `valid_cells` when it is given.
[[nodiscard]] Array3D<std::uint8_t> block_occupancy(
    const amr::AmrLevel& level, const BlockGrid& grid,
    std::size_t* valid_cells = nullptr);

/// Fraction of non-empty unit blocks — the density the hybrid filter
/// thresholds (T1/T2) compare against.
[[nodiscard]] double occupancy_density(const Array3D<std::uint8_t>& occ);

/// A rectangular group of unit blocks extracted by a strategy, in
/// unit-block coordinates.
struct SubBlock {
  std::size_t bx = 0, by = 0, bz = 0;  ///< origin block
  std::size_t sx = 1, sy = 1, sz = 1;  ///< extent in blocks

  friend constexpr bool operator==(const SubBlock&, const SubBlock&) = default;
};

}  // namespace tac::core

#endif  // TAC_CORE_BLOCK_GRID_HPP
