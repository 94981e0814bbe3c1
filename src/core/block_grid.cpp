#include "core/block_grid.hpp"

#include "common/parallel.hpp"

namespace tac::core {

Array3D<std::uint8_t> block_occupancy(const amr::AmrLevel& level,
                                      const BlockGrid& grid) {
  const Dims3 bd = grid.block_dims();
  Array3D<std::uint8_t> occ(bd, 0);
  parallel_for(0, bd.nz, [&](std::size_t bz) {
    for (std::size_t by = 0; by < bd.ny; ++by)
      for (std::size_t bx = 0; bx < bd.nx; ++bx) {
        const Box3 box = grid.block_box(bx, by, bz);
        // Branch-free OR over each block row: a per-byte early exit made
        // this loop's speed swing with its code alignment.
        std::uint8_t any = 0;
        for (std::size_t z = box.z0; z < box.z1 && !any; ++z)
          for (std::size_t y = box.y0; y < box.y1 && !any; ++y) {
            const std::uint8_t* row = &level.mask(box.x0, y, z);
            for (std::size_t x = 0; x < box.x1 - box.x0; ++x) any |= row[x];
          }
        occ(bx, by, bz) = any != 0;
      }
  }, /*grain=*/1);
  return occ;
}

double occupancy_density(const Array3D<std::uint8_t>& occ) {
  if (occ.size() == 0) return 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < occ.size(); ++i) n += occ[i] ? 1 : 0;
  return static_cast<double>(n) / static_cast<double>(occ.size());
}

}  // namespace tac::core
