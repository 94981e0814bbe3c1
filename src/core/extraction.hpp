#ifndef TAC_CORE_EXTRACTION_HPP
#define TAC_CORE_EXTRACTION_HPP

/// \file extraction.hpp
/// \brief The three sparse extraction algorithms (NaST, OpST, AKDTree) and
/// the gather/scatter between level grids and compression buffers.
///
/// Every extractor consumes the unit-block occupancy of a level and
/// returns a set of disjoint rectangular sub-blocks that exactly covers
/// the non-empty unit blocks. Sub-blocks of equal extents are then merged
/// into one buffer ("4D array") and compressed as a batch.

#include <span>
#include <vector>

#include "amr/dataset.hpp"
#include "common/arena.hpp"
#include "common/array3d.hpp"
#include "core/block_grid.hpp"

namespace tac::core {

/// Naive sparse tensor (paper §3.1, NaST): every non-empty unit block is
/// its own 1x1x1 sub-block.
[[nodiscard]] std::vector<SubBlock> nast_extract(
    const Array3D<std::uint8_t>& occupancy);

/// Optimized sparse tensor (paper §3.1, OpST / Algorithm 1): dynamic
/// programming computes, per unit block, the side of the largest full cube
/// ending there; cubes are extracted greedily from the bottom-right-rear
/// corner with maxSide-bounded partial recomputation of the DP table.
[[nodiscard]] std::vector<SubBlock> opst_extract(
    const Array3D<std::uint8_t>& occupancy);

/// Adaptive k-d tree (paper §3.2, AKDTree / Algorithm 2): recursive
/// splitting cube -> flat -> slim, choosing the axis that maximizes the
/// occupancy difference between the two children; leaves are empty or full.
/// Counts come from a summed-area table (O(1) per node), which plays the
/// role of the paper's reuse-counts-every-three-levels optimization.
[[nodiscard]] std::vector<SubBlock> akdtree_extract(
    const Array3D<std::uint8_t>& occupancy);

/// Equal-extent sub-blocks merged into one contiguous buffer.
///
/// `buffer` (members.size() * block_cell_dims.volume() cells) is a view
/// into the caller's storage: on the encode path, the ArenaScope the
/// level pipeline passes to gather_groups, so it reuses scratch instead of
/// heap-allocating per group. The decode path never builds a group: each
/// member block goes straight from the sz decoder to scatter_block.
struct BlockGroup {
  Dims3 block_cell_dims;          ///< extents of one sub-block, in cells
  std::vector<SubBlock> members;  ///< placement metadata
  std::span<double> buffer;
};

/// Gathers sub-block cell data from the level into per-extent groups.
/// Cells past the level boundary (clipped edge blocks) read as 0. Group
/// buffers are allocated from `scratch` and stay valid until it closes.
[[nodiscard]] std::vector<BlockGroup> gather_groups(
    const amr::AmrLevel& level, const BlockGrid& grid,
    const std::vector<SubBlock>& sub_blocks, ArenaScope& scratch);

/// Writes one member block's values (`values`: block_cell_dims.volume()
/// cells in raster order) back into the level. The block is clipped to
/// the level once; each row then copies its valid cells (mask 1) only, a
/// fully valid row in one copy. Cells past the level boundary and empty
/// cells are left as they are (zero in a freshly materialized level, whose
/// untouched pages then never become resident). Members that claim
/// disjoint unit blocks write disjoint cells, so they may scatter
/// concurrently.
void scatter_block(amr::AmrLevel& level, const BlockGrid& grid,
                   Dims3 block_cell_dims, const SubBlock& member,
                   std::span<const double> values);

/// scatter_block for every member of every group.
void scatter_groups(amr::AmrLevel& level, const BlockGrid& grid,
                    const std::vector<BlockGroup>& groups);

}  // namespace tac::core

#endif  // TAC_CORE_EXTRACTION_HPP
