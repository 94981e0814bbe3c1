#include "core/block_grid.hpp"

#include <algorithm>
#include <cstring>

#include "common/parallel.hpp"

namespace tac::core {

Array3D<std::uint8_t> block_occupancy(const amr::AmrLevel& level,
                                      const BlockGrid& grid) {
  const Dims3 bd = grid.block_dims();
  const Dims3 cd = grid.cell_dims();
  const std::size_t bs = grid.block_size();
  Array3D<std::uint8_t> occ(bd, 0);
  parallel_for(0, bd.nz, [&](std::size_t bz) {
    const std::size_t z1 = std::min(cd.nz, (bz + 1) * bs);
    for (std::size_t by = 0; by < bd.ny; ++by) {
      const std::size_t y0 = by * bs;
      const std::size_t y1 = std::min(cd.ny, y0 + bs);
      std::uint8_t* occ_row = &occ(0, by, bz);
      std::size_t unknown = bd.nx;  // blocks of this row not yet occupied
      for (std::size_t z = bz * bs; z < z1 && unknown != 0; ++z) {
        // Rows y0..y1 of one plane are contiguous: an empty slab (most of
        // a sparse level) is one sequential chunked scan.
        const std::uint8_t* slab = &level.mask(0, y0, z);
        if (amr::mask_bytes_empty(slab, (y1 - y0) * cd.nx)) continue;
        for (std::size_t bx = 0; bx < bd.nx; ++bx) {
          if (occ_row[bx]) continue;
          const std::size_t x0 = bx * bs;
          const std::size_t w = std::min(cd.nx, x0 + bs) - x0;
          // Branch-free OR over each block row, eight mask bytes per load
          // plus a byte tail for clipped or odd widths: a per-byte early
          // exit made this loop's speed swing with its code alignment.
          std::uint64_t any = 0;
          for (std::size_t y = y0; y < y1 && !any; ++y) {
            const std::uint8_t* row = slab + (y - y0) * cd.nx + x0;
            std::size_t x = 0;
            for (; x + 8 <= w; x += 8) {
              std::uint64_t word;
              std::memcpy(&word, row + x, sizeof(word));
              any |= word;
            }
            for (; x < w; ++x) any |= row[x];
          }
          if (any) {
            occ_row[bx] = 1;
            --unknown;
          }
        }
      }
    }
  }, /*grain=*/1);
  return occ;
}

std::size_t occupied_valid_count(const amr::AmrLevel& level,
                                 const BlockGrid& grid,
                                 const Array3D<std::uint8_t>& occ) {
  const Dims3 bd = grid.block_dims();
  std::size_t n = 0;
  for (std::size_t bz = 0; bz < bd.nz; ++bz)
    for (std::size_t by = 0; by < bd.ny; ++by)
      for (std::size_t bx = 0; bx < bd.nx; ++bx) {
        if (!occ(bx, by, bz)) continue;
        const Box3 box = grid.block_box(bx, by, bz);
        for (std::size_t z = box.z0; z < box.z1; ++z)
          for (std::size_t y = box.y0; y < box.y1; ++y)
            n += amr::count_nonzero_bytes(&level.mask(box.x0, y, z),
                                          box.x1 - box.x0);
      }
  return n;
}

double occupancy_density(const Array3D<std::uint8_t>& occ) {
  if (occ.size() == 0) return 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < occ.size(); ++i) n += occ[i] ? 1 : 0;
  return static_cast<double>(n) / static_cast<double>(occ.size());
}

}  // namespace tac::core
