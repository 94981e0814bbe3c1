#include "core/block_grid.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/parallel.hpp"

namespace tac::core {

Array3D<std::uint8_t> block_occupancy(const amr::AmrLevel& level,
                                      const BlockGrid& grid,
                                      std::size_t* valid_cells) {
  const Dims3 bd = grid.block_dims();
  const Dims3 cd = grid.cell_dims();
  const std::size_t bs = grid.block_size();
  Array3D<std::uint8_t> occ(bd, 0);
  std::vector<std::size_t> valid(bd.nz, 0);
  // A block slab owns one plane of `occ`: slabs walk in parallel. Within
  // a cell plane, the rows of one block row are one contiguous stretch
  // of the mask and mark one row of `occ`.
  parallel_for(0, bd.nz, [&](std::size_t bz) {
    std::size_t n = 0;
    const auto count = [&n](std::size_t lo, std::size_t hi) { n += hi - lo; };
    for (std::size_t z = bz * bs; z < std::min(cd.nz, (bz + 1) * bs); ++z)
      for (std::size_t by = 0; by < bd.ny; ++by) {
        const std::size_t y0 = by * bs;
        const auto rows = level.mask.span().subspan(
            cd.index(0, y0, z), (std::min(cd.ny, y0 + bs) - y0) * cd.nx);
        std::uint8_t* occ_row = &occ(0, by, bz);
        // Once every block of the row is marked, its cells are only
        // counted.
        if (std::memchr(occ_row, 0, bd.nx) == nullptr) {
          amr::for_each_valid_run(rows, count);
          continue;
        }
        amr::for_each_valid_run(rows, [&](std::size_t lo, std::size_t hi) {
          count(lo, hi);
          // Split the run at row ends and mark the blocks of each piece.
          for (std::size_t x = lo % cd.nx, left = hi - lo; left != 0; x = 0) {
            const std::size_t x1 = std::min(cd.nx, x + left);
            std::memset(occ_row + x / bs, 1, (x1 - 1) / bs - x / bs + 1);
            left -= x1 - x;
          }
        });
      }
    valid[bz] = n;
  }, /*grain=*/1);
  if (valid_cells != nullptr)
    *valid_cells = std::accumulate(valid.begin(), valid.end(), std::size_t{0});
  return occ;
}

double occupancy_density(const Array3D<std::uint8_t>& occ) {
  if (occ.size() == 0) return 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < occ.size(); ++i) n += occ[i] ? 1 : 0;
  return static_cast<double>(n) / static_cast<double>(occ.size());
}

}  // namespace tac::core
